/**
 * @file
 * LatencyAttribution: the per-stage latency decomposition report —
 * the simulator's answer to the paper's LTTng + blktrace analysis.
 *
 * Attribution totals are accumulated on every span record (not
 * derived from the ring buffer), so they are exact even when the ring
 * wraps, and they merge deterministically across geometry runs and
 * seed replicas. Each stage keeps a Log2Histogram (count / total /
 * max plus log2 duration buckets), enough to show where the *tail*
 * lives: fig06's multi-millisecond p99.9 sits in sched_wait +
 * irq_deliver, and the Section IV tunings collapse exactly those
 * rows.
 */

#ifndef AFA_OBS_ATTRIBUTION_HH
#define AFA_OBS_ATTRIBUTION_HH

#include <array>

#include "obs/log2_histogram.hh"
#include "obs/span.hh"
#include "stats/table.hh"

namespace afa::obs {

/** Per-stage attribution of everything a SpanLog saw. */
struct Attribution
{
    std::array<Log2Histogram, kStageCount> stages;

    void add(Stage stage, Tick duration);
    void merge(const Attribution &other);

    /** True when nothing has been recorded. */
    bool empty() const;

    const Log2Histogram &
    stage(Stage s) const
    {
        return stages[static_cast<std::size_t>(s)];
    }

    /**
     * The report table: one row per stage with counts, totals, mean,
     * ~p99 and max, plus each stage's share of total IO time (the
     * Complete stage's total).
     */
    afa::stats::Table table() const;
};

} // namespace afa::obs

#endif // AFA_OBS_ATTRIBUTION_HH
