/**
 * @file
 * HDR-style log-linear histogram for latency samples.
 *
 * Values (ticks, i.e. nanoseconds) are bucketed into power-of-two
 * magnitude groups, each split into 64 linear sub-buckets. This gives
 * a bounded relative error (~1/64) across the full range from 1 ns to
 * minutes while using a few KB per device -- the same trade FIO and
 * HdrHistogram make. Exact min, max,
 * mean, and standard deviation are tracked alongside.
 */

#ifndef AFA_STATS_HISTOGRAM_HH
#define AFA_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace afa::stats {

using afa::sim::Tick;

/** Log-linear latency histogram with exact extreme/mean tracking. */
class Histogram
{
  public:
    /** log2 of the linear sub-buckets per magnitude group: 64
     *  sub-buckets bound the quantile error to ~1.6%. */
    static constexpr unsigned kSubBits = 6;

    Histogram();

    /** Record one sample. */
    void record(Tick value);

    /** Number of recorded samples. */
    std::uint64_t count() const { return numSamples; }

    /** Exact smallest recorded value (0 when empty). */
    Tick min() const { return numSamples ? minValue : 0; }

    /** Exact largest recorded value (0 when empty). */
    Tick max() const { return numSamples ? maxValue : 0; }

    /** Exact arithmetic mean (0 when empty). */
    double mean() const;

    /** Exact population standard deviation (0 when empty). */
    double stddev() const;

    /**
     * Value at quantile @p q in [0, 1].
     *
     * Returns a representative value of the bucket containing the
     * q-th sample (linear interpolation within the bucket). q=0 gives
     * the exact min; q=1 the exact max.
     */
    Tick quantile(double q) const;

    /** Merge another histogram. */
    void merge(const Histogram &other);

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t numSamples;
    Tick minValue;
    Tick maxValue;
    double sum;
    double sumSquares;

    std::size_t bucketIndex(Tick value) const;
    Tick bucketLow(std::size_t index) const;
    Tick bucketHigh(std::size_t index) const;
};

} // namespace afa::stats

#endif // AFA_STATS_HISTOGRAM_HH
