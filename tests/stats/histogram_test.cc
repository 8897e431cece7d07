/**
 * @file
 * Histogram tests: exactness of extremes/mean, bounded quantile error
 * versus exact sorted-sample quantiles (property sweeps over several
 * distributions), merging, and edge cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "sim/random.hh"
#include "stats/histogram.hh"

using afa::sim::Rng;
using afa::sim::Tick;
using afa::stats::Histogram;

namespace {

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(HistogramTest, SingleSample)
{
    Histogram h;
    h.record(12345);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 12345u);
    EXPECT_EQ(h.max(), 12345u);
    EXPECT_DOUBLE_EQ(h.mean(), 12345.0);
    EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 12345u);
    EXPECT_EQ(h.quantile(0.5), 12345u);
    EXPECT_EQ(h.quantile(1.0), 12345u);
}

TEST(HistogramTest, ExactRegionIsExact)
{
    // Values below 2^kSubBits are stored with one-tick resolution.
    Histogram h;
    for (Tick v = 0; v < 64; ++v)
        h.record(v);
    for (int i = 1; i <= 9; ++i) {
        double q = i / 10.0;
        Tick exact = static_cast<Tick>(std::ceil(q * 64.0)) - 1;
        EXPECT_EQ(h.quantile(q), exact) << "q=" << q;
    }
}

TEST(HistogramTest, MinMaxMeanExact)
{
    Histogram h;
    std::vector<Tick> vals = {5, 100, 100000, 77, 3141592};
    double sum = 0;
    for (Tick v : vals) {
        h.record(v);
        sum += static_cast<double>(v);
    }
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), 3141592u);
    EXPECT_DOUBLE_EQ(h.mean(), sum / vals.size());
}

TEST(HistogramTest, StddevMatchesDirectComputation)
{
    Histogram h;
    std::vector<Tick> vals = {10, 20, 30, 40, 50};
    for (Tick v : vals)
        h.record(v);
    // population stddev of {10..50 step 10} = sqrt(200)
    EXPECT_NEAR(h.stddev(), std::sqrt(200.0), 1e-9);
}

TEST(HistogramTest, WeightedRecord)
{
    Histogram h;
    for (int i = 0; i < 9; ++i)
        h.record(100);
    h.record(1000);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), (9 * 100 + 1000) / 10.0);
    EXPECT_LE(h.quantile(0.9), 101u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(HistogramTest, MergeCombinesEverything)
{
    Histogram a, b;
    a.record(10);
    a.record(1000);
    b.record(5);
    b.record(100000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 100000u);
}

TEST(HistogramTest, MergeIntoEmpty)
{
    Histogram a, b;
    b.record(42);
    a.merge(b);
    EXPECT_EQ(a.min(), 42u);
    EXPECT_EQ(a.max(), 42u);
    EXPECT_EQ(a.count(), 1u);
}

TEST(HistogramTest, HugeValuesDoNotOverflow)
{
    Histogram h;
    h.record(afa::sim::kMaxTick);
    h.record(afa::sim::kMaxTick - 1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), afa::sim::kMaxTick);
    EXPECT_GE(h.quantile(0.5), afa::sim::kMaxTick / 2);
}

/**
 * Property: for a variety of sample distributions, every histogram
 * quantile is within the documented relative error of the exact
 * (sorted-sample) quantile.
 */
struct QuantileCase
{
    const char *name;
    double (*sampler)(Rng &);
};

/**
 * Print a case by its name. Without this, gtest prints the raw bytes
 * of the case into the listed test name, and those bytes hold a
 * pointer that moves with the load address.
 */
void
PrintTo(const QuantileCase &c, std::ostream *os)
{
    *os << c.name;
}

class QuantileAccuracy : public ::testing::TestWithParam<QuantileCase>
{
};

TEST_P(QuantileAccuracy, BoundedRelativeError)
{
    Rng r(77);
    Histogram h;
    const int n = 50000;
    std::vector<Tick> vals;
    vals.reserve(n);
    for (int i = 0; i < n; ++i) {
        double x = GetParam().sampler(r);
        Tick v = static_cast<Tick>(std::max(x, 1.0));
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n)));
        rank = std::max<std::size_t>(rank, 1);
        Tick exact = vals[rank - 1];
        Tick approx = h.quantile(q);
        double rel_err =
            std::abs(static_cast<double>(approx) -
                     static_cast<double>(exact)) /
            static_cast<double>(exact);
        // Interpolation within the bucket can add at most one bucket
        // width; allow 2x the nominal bound of 2^-kSubBits.
        EXPECT_LE(rel_err, 2.0 / (1u << Histogram::kSubBits))
            << GetParam().name << " q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, QuantileAccuracy,
    ::testing::Values(
        QuantileCase{"uniform",
                     [](Rng &r) { return r.uniform(1000.0, 100000.0); }},
        QuantileCase{"lognormal",
                     [](Rng &r) { return r.lognormal(30000.0, 0.4); }},
        QuantileCase{"exponential",
                     [](Rng &r) { return r.exponential(25000.0); }},
        QuantileCase{"pareto",
                     [](Rng &r) { return r.pareto(20000.0, 2.0); }},
        QuantileCase{"bimodal",
                     [](Rng &r) {
                         return r.chance(0.95) ? r.normal(30000.0, 2000.0)
                                               : r.normal(600000.0,
                                                          20000.0);
                     }}),
    [](const ::testing::TestParamInfo<QuantileCase> &info) {
        return info.param.name;
    });

TEST(HistogramTest, QuantileMonotoneInQ)
{
    Rng r(9);
    Histogram h;
    for (int i = 0; i < 20000; ++i)
        h.record(static_cast<Tick>(r.lognormal(30000.0, 0.6)));
    Tick prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        Tick v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

} // namespace
