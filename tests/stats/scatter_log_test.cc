/**
 * @file
 * Tests for the raw-sample scatter log and spike-cluster detection
 * (the Fig. 10 analysis pipeline).
 */

#include <gtest/gtest.h>

#include "sim/types.hh"
#include "stats/scatter_log.hh"

using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;
using afa::stats::ScatterLog;

namespace {

TEST(ScatterLogTest, RecordsInOrder)
{
    ScatterLog log;
    log.record(100, usec(30), 0);
    log.record(200, usec(31), 1);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.samples()[0].index, 0u);
    EXPECT_EQ(log.samples()[1].index, 1u);
    EXPECT_EQ(log.samples()[1].device, 1u);
}

TEST(ScatterLogTest, CapacityBoundCountsDrops)
{
    ScatterLog log(2);
    for (int i = 0; i < 5; ++i)
        log.record(i, usec(30), 0);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.dropped(), 3u);
}

TEST(ScatterLogTest, ClustersGroupNearbyOutliers)
{
    ScatterLog log;
    // Two spike bursts 30s apart, each with 3 outliers 10us apart.
    for (int burst = 0; burst < 2; ++burst) {
        auto base = sec(10) + burst * sec(30);
        for (int i = 0; i < 3; ++i)
            log.record(base + i * usec(10), usec(550 + i), 0);
        // quiet samples in between
        log.record(base + sec(1), usec(30), 0);
    }
    auto cs = log.clusters(usec(100), msec(1));
    ASSERT_EQ(cs.size(), 2u);
    EXPECT_EQ(cs[0].samples, 3u);
    EXPECT_EQ(cs[0].peakLatency, usec(552));
    EXPECT_EQ(cs[1].samples, 3u);
}

TEST(ScatterLogTest, ClusterPeriodIsMedianInterval)
{
    ScatterLog log;
    // Spikes every ~30 s.
    for (int k = 0; k < 5; ++k)
        log.record(sec(5) + k * sec(30), usec(600), 0);
    auto period = log.clusterPeriod(usec(100), msec(1));
    EXPECT_EQ(period, sec(30));
}

TEST(ScatterLogTest, ClusterPeriodRequiresTwoClusters)
{
    ScatterLog log;
    log.record(sec(5), usec(600), 0);
    EXPECT_EQ(log.clusterPeriod(usec(100), msec(1)), 0u);
}

TEST(ScatterLogTest, ToTextStride)
{
    ScatterLog log;
    for (int i = 0; i < 10; ++i)
        log.record(i, usec(30), 2);
    std::string txt = log.toText(5);
    // Two lines expected (indices 0 and 5).
    EXPECT_EQ(std::count(txt.begin(), txt.end(), '\n'), 2);
    EXPECT_NE(txt.find("nvme2"), std::string::npos);
}

TEST(ScatterLogTest, ClearResets)
{
    ScatterLog log;
    log.record(1, usec(30), 0);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    log.record(2, usec(30), 0);
    EXPECT_EQ(log.samples()[0].index, 0u);
}

} // namespace
