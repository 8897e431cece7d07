/**
 * @file
 * SpanLog: the allocation-free typed span collector.
 *
 * Records land in a geometric-growth ring buffer of packed
 * SpanRecords: the buffer starts small, doubles up to the configured
 * capacity as traffic arrives, and past capacity wraps around
 * overwriting the oldest records (counted in dropped()). Alongside
 * the ring, one Log2Histogram per stage is updated on every record,
 * so the LatencyAttribution report stays exact even when the ring
 * wraps. A log of capacity 0 has no ring: it still feeds attribution
 * and telemetry but builds no SpanRecord.
 *
 * Cost model: wants() is an inline bitmask test against both the
 * runtime mask and the compile-time AFA_OBS_COMPILED_CATEGORIES, so a
 * disabled instrumentation site costs one predictable branch (zero
 * when the category is compiled out and the compiler folds the
 * check). record() itself never allocates except when the ring grows
 * a step, and growth stops at capacity.
 *
 * Thread model: one SpanLog belongs to one Simulator (one worker
 * thread of the parallel experiment runner) and is never shared.
 */

#ifndef AFA_OBS_SPAN_LOG_HH
#define AFA_OBS_SPAN_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/attribution.hh"
#include "obs/span.hh"

namespace afa::obs {

class Telemetry;

/** SpanLog construction parameters. */
struct TraceParams
{
    /** Bitmask of enabled Categories (0 disables every site). */
    std::uint32_t mask = 0;

    /** Ring capacity in records (32 bytes each); 0 keeps no ring. */
    std::size_t capacity = std::size_t(1) << 20;
};

/** The span collector. */
class SpanLog
{
  public:
    explicit SpanLog(const TraceParams &params = TraceParams{});

    /**
     * True when spans of @p category should be recorded. The
     * instrumentation-site gate: `if (log && log->wants(...))`.
     */
    bool
    wants(Category category) const
    {
        return (mask_ & AFA_OBS_COMPILED_CATEGORIES &
                categoryBit(category)) != 0;
    }

    /** Runtime category mask. */
    std::uint32_t mask() const { return mask_; }

    /**
     * Record one span. No-ops when the stage's category is disabled,
     * so callers may skip the wants() pre-check on cold paths.
     */
    void record(Stage stage, std::uint64_t io, Tick begin, Tick end,
                std::uint16_t track, std::uint8_t flags = 0,
                std::uint32_t arg = 0);

    /** Spans recorded (including any the ring later overwrote). */
    std::uint64_t recorded() const { return numRecorded; }

    /** Records overwritten after the ring reached capacity. */
    std::uint64_t dropped() const { return numDropped; }

    /** Records currently retained in the ring. */
    std::size_t retained() const { return ring.size(); }

    /** Ring capacity in records. */
    std::size_t capacity() const { return cap; }

    /** Retained records, oldest first (the recording order). */
    std::vector<SpanRecord> snapshot() const;

    /** Exact per-stage totals (independent of ring drops). */
    const Attribution &attribution() const { return accum; }

    /**
     * Attach a telemetry sink: every record() additionally feeds the
     * sink's windowed per-stage histograms (same exactness guarantee
     * as the Attribution accumulators — ring wraps and drops never
     * lose a windowed count). nullptr detaches; the sink must outlive
     * the log while attached.
     */
    void setTelemetry(Telemetry *sink) { telemetry_ = sink; }

  private:
    std::uint32_t mask_;
    std::size_t cap;       ///< growth ceiling of the ring
    std::size_t head = 0;  ///< next overwrite slot once at capacity
    std::vector<SpanRecord> ring;
    std::uint64_t numRecorded = 0;
    std::uint64_t numDropped = 0;
    Attribution accum;
    Telemetry *telemetry_ = nullptr;
};

} // namespace afa::obs

#endif // AFA_OBS_SPAN_LOG_HH
