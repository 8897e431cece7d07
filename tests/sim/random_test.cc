/**
 * @file
 * Tests for the deterministic RNG: reproducibility, stream
 * independence, and statistical sanity of every distribution
 * (parameterised property-style sweeps).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

using afa::sim::Rng;

namespace {

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, ForkByTagIsDeterministic)
{
    Rng root(7);
    Rng a = root.fork("ssd0");
    Rng b = Rng(7).fork("ssd0");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, ForkedStreamsAreIndependent)
{
    Rng root(7);
    Rng a = root.fork("ssd0");
    Rng b = root.fork("ssd1");
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, ForkByIndexDiffersFromNeighbours)
{
    Rng root(7);
    Rng a = root.fork(std::uint64_t(0));
    Rng b = root.fork(std::uint64_t(1));
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, ForkDoesNotAdvanceParent)
{
    Rng a(99), b(99);
    (void)a.fork("child");
    EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformIsInHalfOpenUnitInterval)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform(10.0, 20.0);
        EXPECT_GE(u, 10.0);
        EXPECT_LT(u, 20.0);
    }
}

TEST(RngTest, UniformIntInclusiveBoundsAndCoverage)
{
    Rng r(5);
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 6000; ++i) {
        auto v = r.uniformInt(10, 15);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 15u);
        seen[v - 10]++;
    }
    for (int c : seen)
        EXPECT_GT(c, 800); // each of 6 values ~1000 expected
}

TEST(RngTest, UniformIntDegenerateRange)
{
    Rng r(5);
    EXPECT_EQ(r.uniformInt(42, 42), 42u);
}

TEST(RngTest, UniformIntReversedRangePanics)
{
    afa::sim::setThrowOnError(true);
    Rng r(5);
    EXPECT_THROW(r.uniformInt(10, 5), afa::sim::SimError);
    afa::sim::setThrowOnError(false);
}

TEST(RngTest, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(RngTest, ChanceFrequencyTracksP)
{
    Rng r(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (r.chance(0.3))
            ++hits;
    EXPECT_NEAR(hits / double(n), 0.3, 0.01);
}

/** Parameterised moment checks for the continuous distributions. */
struct DistCase
{
    const char *name;
    double expectedMean;
    double expectedStddev;
    double sample(Rng &r) const { return sampler(r); }
    double (*sampler)(Rng &);
    double meanTol;
    double stddevTol;
};

/**
 * Print a case by its name. Without this, gtest prints the raw bytes
 * of the case into the listed test name, and those bytes hold a
 * pointer that moves with the load address.
 */
void
PrintTo(const DistCase &c, std::ostream *os)
{
    *os << c.name;
}

class DistributionMoments : public ::testing::TestWithParam<DistCase>
{
};

TEST_P(DistributionMoments, MeanAndStddevMatchTheory)
{
    const auto &tc = GetParam();
    Rng r(2026);
    const int n = 200000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = tc.sample(r);
        sum += v;
        sumsq += v * v;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, tc.expectedMean, tc.meanTol) << tc.name;
    EXPECT_NEAR(std::sqrt(var), tc.expectedStddev, tc.stddevTol)
        << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMoments,
    ::testing::Values(
        DistCase{"normal01", 0.0, 1.0,
                 [](Rng &r) { return r.normal(); }, 0.02, 0.02},
        DistCase{"normal_5_2", 5.0, 2.0,
                 [](Rng &r) { return r.normal(5.0, 2.0); }, 0.04, 0.04},
        // lognormal(median m, sigma s): mean = m*exp(s^2/2),
        // stddev = mean*sqrt(exp(s^2)-1)
        DistCase{"lognormal", 25.0 * std::exp(0.125),
                 25.0 * std::exp(0.125) *
                     std::sqrt(std::exp(0.25) - 1.0),
                 [](Rng &r) { return r.lognormal(25.0, 0.5); },
                 0.3, 0.4},
        DistCase{"exponential", 10.0, 10.0,
                 [](Rng &r) { return r.exponential(10.0); }, 0.15, 0.2},
        // pareto(xm=1, a=3): mean = a*xm/(a-1) = 1.5,
        // stddev = xm*sqrt(a/((a-1)^2(a-2))) = sqrt(3)/2
        DistCase{"pareto", 1.5, std::sqrt(3.0) / 2.0,
                 [](Rng &r) { return r.pareto(1.0, 3.0); }, 0.05, 0.25}),
    [](const ::testing::TestParamInfo<DistCase> &info) {
        return info.param.name;
    });

TEST(RngTest, LognormalMedianIsMedian)
{
    Rng r(11);
    const int n = 100001;
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = r.lognormal(42.0, 0.7);
    std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
    EXPECT_NEAR(xs[n / 2], 42.0, 1.5);
}

TEST(RngTest, ParetoNeverBelowMinimum)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
}

TEST(RngTest, ExponentialIsNonNegative)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.exponential(5.0), 0.0);
}

TEST(RngTest, InvalidParametersPanic)
{
    afa::sim::setThrowOnError(true);
    Rng r(1);
    EXPECT_THROW(r.lognormal(0.0, 1.0), afa::sim::SimError);
    EXPECT_THROW(r.exponential(-1.0), afa::sim::SimError);
    EXPECT_THROW(r.pareto(0.0, 1.0), afa::sim::SimError);
    EXPECT_THROW(r.pareto(1.0, 0.0), afa::sim::SimError);
    afa::sim::setThrowOnError(false);
}

TEST(RngTest, HashTagSpreadsSimilarStrings)
{
    auto a = afa::sim::hashTag("nvme0");
    auto b = afa::sim::hashTag("nvme1");
    EXPECT_NE(a, b);
    // Rough avalanche check: many differing bits.
    int bits = __builtin_popcountll(a ^ b);
    EXPECT_GT(bits, 10);
}

} // namespace
