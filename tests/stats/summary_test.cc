/**
 * @file
 * Tests for the FIO-style latency summary and the cross-device
 * aggregation used by Figs. 12 and 14.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hh"
#include "sim/types.hh"
#include "stats/summary.hh"

using afa::sim::usec;
using afa::stats::Histogram;
using afa::stats::LadderAggregate;
using afa::stats::LatencySummary;
using afa::stats::NinesLadder;

namespace {

TEST(NinesLadderTest, LadderShape)
{
    const auto &q = NinesLadder::quantiles();
    ASSERT_EQ(q.size(), 7u);
    EXPECT_LT(q[0], 0.0); // avg sentinel
    EXPECT_DOUBLE_EQ(q[1], 0.99);
    EXPECT_DOUBLE_EQ(q[5], 0.999999);
    EXPECT_DOUBLE_EQ(q[6], 1.0);
    EXPECT_STREQ(NinesLadder::labels()[1], "99%");
}

TEST(LatencySummaryTest, FromHistogramBasics)
{
    Histogram h;
    // 999 fast samples at 30us, one slow at 5ms.
    for (int i = 0; i < 999; ++i)
        h.record(usec(30));
    h.record(afa::sim::msec(5));
    auto s = LatencySummary::fromHistogram("nvme0", h);
    EXPECT_EQ(s.device, "nvme0");
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_NEAR(s.meanUs, (999 * 30.0 + 5000.0) / 1000.0, 0.5);
    EXPECT_NEAR(s.maxUs, 5000.0, 1.0);
    EXPECT_NEAR(s.minUs, 30.0, 0.1);
    // avg slot mirrors the mean
    EXPECT_DOUBLE_EQ(s.ladderUs[0], s.meanUs);
    // p99 must be fast, max slot must be the outlier
    EXPECT_LT(s.ladderUs[1], 40.0);
    EXPECT_NEAR(s.ladderUs[6], 5000.0, 1.0);
}

TEST(LatencySummaryTest, LadderIsMonotone)
{
    Histogram h;
    afa::sim::Rng r(3);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<afa::sim::Tick>(r.lognormal(30000.0, 0.5)));
    auto s = LatencySummary::fromHistogram("d", h);
    for (std::size_t i = 2; i < NinesLadder::kPoints; ++i)
        EXPECT_GE(s.ladderUs[i], s.ladderUs[i - 1]) << i;
}

TEST(LatencySummaryTest, EmptyHistogram)
{
    Histogram h;
    auto s = LatencySummary::fromHistogram("d", h);
    EXPECT_EQ(s.samples, 0u);
    EXPECT_DOUBLE_EQ(s.meanUs, 0.0);
    EXPECT_DOUBLE_EQ(s.maxUs, 0.0);
}

TEST(LadderAggregateTest, EmptyInput)
{
    auto agg = LadderAggregate::across({});
    EXPECT_EQ(agg.devices, 0u);
}

TEST(LadderAggregateTest, SingleDeviceHasZeroStddev)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(usec(30));
    auto s = LatencySummary::fromHistogram("d", h);
    auto agg = LadderAggregate::across({s});
    EXPECT_EQ(agg.devices, 1u);
    for (std::size_t p = 0; p < NinesLadder::kPoints; ++p) {
        EXPECT_DOUBLE_EQ(agg.stddevUs[p], 0.0);
        EXPECT_DOUBLE_EQ(agg.meanUs[p], s.ladderUs[p]);
    }
}

TEST(LadderAggregateTest, MeanAndStddevAcrossDevices)
{
    // Two devices with max latencies 100us and 300us:
    // mean 200, population stddev 100.
    LatencySummary a, b;
    a.ladderUs.fill(100.0);
    b.ladderUs.fill(300.0);
    auto agg = LadderAggregate::across({a, b});
    EXPECT_EQ(agg.devices, 2u);
    EXPECT_DOUBLE_EQ(agg.meanUs[6], 200.0);
    EXPECT_DOUBLE_EQ(agg.stddevUs[6], 100.0);
    EXPECT_DOUBLE_EQ(agg.minUs[6], 100.0);
    EXPECT_DOUBLE_EQ(agg.maxUs[6], 300.0);
}

TEST(LadderAggregateTest, ConvergedDevicesHaveTinyStddev)
{
    // The paper's Fig. 12 bottom: convergence across devices shows up
    // as small stddev at every ladder point.
    std::vector<LatencySummary> devs;
    for (int d = 0; d < 64; ++d) {
        LatencySummary s;
        for (std::size_t p = 0; p < NinesLadder::kPoints; ++p)
            s.ladderUs[p] = 30.0 + static_cast<double>(p);
        devs.push_back(s);
    }
    auto agg = LadderAggregate::across(devs);
    for (std::size_t p = 0; p < NinesLadder::kPoints; ++p)
        EXPECT_DOUBLE_EQ(agg.stddevUs[p], 0.0);
}

} // namespace
