/**
 * @file
 * Log2Histogram: the obs layer's exact, mergeable duration histogram.
 *
 * Count, total and max are exact; the 64 buckets count durations by
 * bit_width, so add() is a handful of integer operations and merge()
 * is element-wise addition, order-independent across geometry runs,
 * seed replicas and telemetry windows. Attribution keeps one per span
 * Stage; a telemetry window cell is one plus its ACT exceed counters.
 *
 * The per-IO latency ladders use stats::Histogram instead: its linear
 * sub-buckets resolve the nines, and its rank rule pins every figure
 * and digest (DESIGN.md §10).
 */

#ifndef AFA_OBS_LOG2_HISTOGRAM_HH
#define AFA_OBS_LOG2_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/types.hh"

namespace afa::obs {

using afa::sim::Tick;

/** Exact count/total/max plus log2 duration buckets. */
struct Log2Histogram
{
    /** Bucket i holds durations with bit_width(d) == i, i.e.
     *  [2^(i-1), 2^i); bucket 0 holds 0 and the top bucket also takes
     *  everything wider. */
    static constexpr unsigned kBuckets = 64;

    std::uint64_t count = 0;
    std::uint64_t totalTicks = 0;
    Tick maxTicks = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /** Inline because SpanLog::record() calls it for every span. */
    void
    add(Tick duration)
    {
        ++count;
        totalTicks += duration;
        maxTicks = std::max(maxTicks, duration);
        ++buckets[std::min<unsigned>(std::bit_width(duration),
                                     kBuckets - 1)];
    }

    void merge(const Log2Histogram &other);

    /** Mean duration in ticks (0 when empty). */
    double meanTicks() const;

    /**
     * The @p q quantile: the target rank floor(q * count) is placed
     * linearly inside the bucket that holds it, clamped to the
     * observed max; q >= 1 is the max itself. Never below that
     * bucket's low edge, never above max, monotone in q.
     */
    Tick quantileTicks(double q) const;
};

} // namespace afa::obs

#endif // AFA_OBS_LOG2_HISTOGRAM_HH
