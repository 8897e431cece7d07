/**
 * @file
 * Log2Histogram tests: exact count/total/max, merge equals sequential
 * adds, and the quantile rule (interpolated inside the bucket holding
 * the target rank, clamped to max). The StageTotalsTest and
 * TelemetryTest suite names are kept from the per-stage and per-window
 * copies this type replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "obs/log2_histogram.hh"
#include "sim/random.hh"

using afa::obs::Log2Histogram;
using afa::obs::Tick;

namespace {

/** Durations spread over bit widths 0..@p max_width. */
std::vector<Tick>
randomDurations(std::uint64_t seed, std::size_t n, unsigned max_width)
{
    afa::sim::Rng rng(seed);
    std::vector<Tick> out;
    for (std::size_t i = 0; i < n; ++i) {
        const auto width = rng.uniformInt(0, max_width);
        out.push_back(width == 0 ? 0
                                 : rng.uniformInt(Tick(1) << (width - 1),
                                                  (Tick(1) << width) - 1));
    }
    return out;
}

TEST(StageTotalsTest, AddTracksCountTotalMax)
{
    Log2Histogram t;
    t.add(10);
    t.add(30);
    t.add(20);
    EXPECT_EQ(t.count, 3u);
    EXPECT_EQ(t.totalTicks, 60u);
    EXPECT_EQ(t.maxTicks, 30u);
    EXPECT_DOUBLE_EQ(t.meanTicks(), 20.0);
}

TEST(StageTotalsTest, QuantileFindsTheRightBucket)
{
    Log2Histogram t;
    // 99 short spans (100 ticks: bucket 7, [64, 127]) and one huge
    // one (1e6 ticks: bucket 20, [2^19, 2^20 - 1]).
    for (int i = 0; i < 99; ++i)
        t.add(100);
    t.add(1000000);
    EXPECT_GE(t.quantileTicks(0.5), 64u);
    EXPECT_LE(t.quantileTicks(0.5), 100u);
    EXPECT_EQ(t.quantileTicks(0.0), 64u);
    // The lone sample of bucket 20 sits at its low edge.
    EXPECT_EQ(t.quantileTicks(0.99), Tick(1) << 19);
    EXPECT_EQ(t.quantileTicks(1.0), 1000000u);
}

TEST(StageTotalsTest, EmptyQuantileIsZero)
{
    Log2Histogram t;
    EXPECT_EQ(t.quantileTicks(0.99), 0u);
    EXPECT_EQ(t.quantileTicks(1.0), 0u);
    EXPECT_DOUBLE_EQ(t.meanTicks(), 0.0);
}

TEST(StageTotalsTest, MergeEqualsSequentialAdds)
{
    Log2Histogram a;
    Log2Histogram b;
    Log2Histogram both;
    for (Tick d : randomDurations(1, 500, 40)) {
        a.add(d);
        both.add(d);
    }
    for (Tick d : randomDurations(2, 700, 50)) {
        b.add(d);
        both.add(d);
    }
    a.merge(b);
    EXPECT_EQ(a.count, both.count);
    EXPECT_EQ(a.totalTicks, both.totalTicks);
    EXPECT_EQ(a.maxTicks, both.maxTicks);
    EXPECT_EQ(a.buckets, both.buckets);
    // The durations really did spread across many buckets.
    EXPECT_GT(std::count_if(both.buckets.begin(), both.buckets.end(),
                            [](std::uint64_t n) { return n != 0; }),
              40);
}

TEST(TelemetryTest, QuantilesLandInTheRightLog2Bucket)
{
    // 90 fast ops (bit_width 7: [64, 127]) and 10 slow ones
    // (bit_width 14): p50 must interpolate inside the fast bucket,
    // p99/p999 inside the slow one, capped by the observed max.
    Log2Histogram cell;
    for (int i = 0; i < 90; ++i)
        cell.add(100);
    for (int i = 0; i < 10; ++i)
        cell.add(10000);

    const Tick p50 = cell.quantileTicks(0.50);
    const Tick p99 = cell.quantileTicks(0.99);
    const Tick p999 = cell.quantileTicks(0.999);
    EXPECT_GE(p50, 64u);
    EXPECT_LE(p50, 127u);
    EXPECT_GE(p99, 8192u);
    EXPECT_LE(p99, 10000u);
    EXPECT_LE(p99, p999);
    EXPECT_EQ(cell.maxTicks, 10000u);
    EXPECT_EQ(cell.quantileTicks(1.0), 10000u);
}

TEST(Log2HistogramTest, QuantileIsMonotoneInsideItsBucketAndCapped)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<Tick> values =
            randomDurations(seed, 1 + seed * 37, 45);
        Log2Histogram h;
        for (Tick d : values)
            h.add(d);
        std::sort(values.begin(), values.end());

        Tick prev = 0;
        for (int step = 0; step <= 1000; ++step) {
            const double q = step / 1000.0;
            const Tick got = h.quantileTicks(q);
            EXPECT_GE(got, prev) << "seed " << seed << " q " << q;
            EXPECT_LE(got, h.maxTicks) << "seed " << seed << " q " << q;
            // The bucket holding the target rank bounds the answer.
            const auto rank = std::min<std::size_t>(
                static_cast<std::size_t>(q * values.size()),
                values.size() - 1);
            const auto width = std::bit_width(values[rank]);
            const Tick low = width == 0 ? 0 : Tick(1) << (width - 1);
            EXPECT_GE(got, low) << "seed " << seed << " q " << q;
            if (q < 1.0) {
                EXPECT_LT(got, Tick(1) << width)
                    << "seed " << seed << " q " << q;
            }
            prev = got;
        }
        EXPECT_EQ(h.quantileTicks(1.0), h.maxTicks) << "seed " << seed;
    }
}

TEST(Log2HistogramTest, WidestDurationsShareTheTopBucket)
{
    Log2Histogram h;
    h.add(Tick(1) << 62);
    h.add(~Tick(0));
    EXPECT_EQ(h.buckets[Log2Histogram::kBuckets - 1], 2u);
    EXPECT_EQ(h.quantileTicks(0.4), Tick(1) << 62);
    // The top rank interpolates to exactly the max, with no wrap.
    EXPECT_EQ(h.quantileTicks(0.9), ~Tick(0));
    EXPECT_EQ(h.quantileTicks(1.0), ~Tick(0));
}

} // namespace
