/**
 * @file
 * Time-series telemetry: windowed per-stage latency histograms,
 * ACT-style threshold buckets, sampled counter/gauge sources, and
 * the simulator's self-profiling stream.
 *
 * Every end-of-run surface the repo already has (MetricsRegistry
 * snapshots, Attribution totals, Perfetto spans) aggregates a whole
 * run into one number per metric. Telemetry slices the same signals
 * into fixed simulated-time windows (--telemetry=<window_ms>):
 *
 *  - Stage rows: per [w*W, (w+1)*W) window, a Log2Histogram per span
 *    Stage, fed exactly per record from SpanLog::record() like the
 *    Attribution accumulators — windowed counts stay exact even when
 *    the span ring wraps or drops. Each cell also keeps the ACT-style
 *    exceed counters (ops with duration > 1/2/4/8/... ms), counted
 *    exactly at record time because millisecond thresholds are not
 *    log2-bucket boundaries in ticks.
 *
 *  - Counter/gauge rows: named sources registered by the model
 *    (driver in-flight, fabric fast-path/fallback packets, rebuild
 *    progress, ...) sampled at every window boundary and exported as
 *    per-window deltas (counters) or instantaneous values (gauges).
 *
 *  - Sim rows: the Simulator's self-profiling stream: model events
 *    and plumbing events executed per window.
 *
 * Determinism contract (DESIGN.md §13): samples are taken between
 * ticks by Simulator::sampleEvery(), not in events, so
 *  (a) samples never count toward any event count or events-per-IO,
 *  (b) a sample at tick T observes the state after every event of
 *      tick T,
 *  (c) every canonical report stays byte-identical with telemetry on
 *      or off at any --jobs.
 */

#ifndef AFA_OBS_TELEMETRY_HH
#define AFA_OBS_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/log2_histogram.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"

namespace afa::obs {

using afa::sim::Tick;

/** ACT-style latency thresholds: 1, 2, 4, ... 128 ms. */
constexpr unsigned kActThresholds = 8;

/** Threshold k in ticks (2^k milliseconds). */
constexpr Tick
actThresholdTicks(unsigned k)
{
    return Tick(1000000) << k;
}

/**
 * One window's histogram of one stage plus the ACT exceed counters.
 * Commutative adds only, so run/replica merges are order-independent.
 */
struct WindowStageCell : Log2Histogram
{
    /** exceed[k] counts durations > actThresholdTicks(k). */
    std::array<std::uint64_t, kActThresholds> exceed{};

    void add(Tick duration);
    void merge(const WindowStageCell &other);
};

/**
 * The mergeable, plain-data timeline a Telemetry instance produces:
 * per-window stage cells, per-window counter deltas / gauge values,
 * and the per-window simulator self-profile. Merging across
 * geometry runs and seed replicas is deterministic (maps are
 * key-ordered; all combination rules are commutative).
 */
struct TelemetryTimeline
{
    /** Window length in ticks (0 = disabled/empty). */
    Tick window = 0;

    /** window index -> stage id -> cell. */
    std::map<std::uint64_t, std::map<std::uint8_t, WindowStageCell>>
        stages;

    /** One sampled point of a counter/gauge series. */
    struct Point
    {
        std::uint64_t delta = 0; ///< counter delta over the window
        double value = 0.0;      ///< gauge value at the window end
    };

    /** One registered source's series. */
    struct Series
    {
        MetricKind kind = MetricKind::Counter;
        std::map<std::uint64_t, Point> points;
    };

    /** source name -> series (name-ordered, like MetricsSnapshot). */
    std::map<std::string, Series> series;

    /** The point of series @p name at window @p w, or nullptr. */
    const Point *seriesPoint(const std::string &name,
                             std::uint64_t w) const;

    /** Per-window simulator self-profile (deltas over the window). */
    struct SimWindow
    {
        std::uint64_t executed = 0; ///< model events
        std::uint64_t plumbing = 0; ///< internal plumbing events
    };

    /** window index -> self-profile deltas. */
    std::map<std::uint64_t, SimWindow> sim;

    bool empty() const;

    /** Fold another timeline in: stage cells, counter deltas and sim
     *  profiles add, gauges keep the larger value. */
    void merge(const TelemetryTimeline &other);

    /** JSON-lines export: one self-describing object per row, rows
     *  ordered by (window, row kind, stage id / name). */
    std::string toJsonLines() const;

    /** The same rows as one JSON array (for --metrics-json embeds). */
    std::string toJson(const std::string &indent = "") const;

    /** Tidy CSV export (one header, one row per timeline entry). */
    std::string toCsv() const;
};

/** Telemetry construction parameters. */
struct TelemetryParams
{
    /** Sampling window in ticks (0 disables everything). */
    Tick window = 0;
};

/**
 * The telemetry collector. One instance belongs to one Simulator
 * (like a SpanLog): stage feeds arrive from SpanLog::record(), sources
 * are sampled by the simulator's sampler at every window end.
 */
class Telemetry
{
  public:
    explicit Telemetry(const TelemetryParams &params);

    /** True when a non-zero window was configured. */
    bool enabled() const { return windowTicks != 0; }

    /** The sampling window in ticks. */
    Tick window() const { return windowTicks; }

    /**
     * Stage feed, called by SpanLog::record(): bucket @p duration into
     * the window that holds @p end. Never allocates outside a window's
     * first record.
     */
    void recordSpan(Stage stage, Tick end, Tick duration);

    /**
     * Register a counter source sampled at every window boundary.
     * The callback must be monotonic; rows report the per-window
     * delta.
     */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> fn);

    /** Register a gauge source (instantaneous value per window). */
    void addGauge(const std::string &name,
                  std::function<double()> fn);

    /**
     * Begin sampling on @p sim: installs its sampler, which samples
     * every source and the self-profiling stream at each window end.
     * No-op when disabled.
     */
    void start(afa::sim::Simulator &sim);

    /**
     * Stop sampling: removes the sampler and takes a final sample
     * covering the trailing partial window. Call after run() returns.
     */
    void finish();

    /** Build the mergeable timeline (samples turned into per-window
     *  deltas). */
    TelemetryTimeline timeline() const;

  private:
    /** One sampled value of every source at one window boundary. */
    struct SampleRow
    {
        std::vector<std::uint64_t> counters; ///< cumulative values
        std::vector<double> gauges;
        std::uint64_t executed = 0; ///< cumulative model events
        std::uint64_t plumbing = 0; ///< cumulative plumbing events
    };

    struct Source
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        std::function<std::uint64_t()> counterFn;
        std::function<double()> gaugeFn;
    };

    void sampleWindow(std::uint64_t window_idx);

    Tick windowTicks;
    /** window index -> stage id -> cell. The cached row pointer makes
     *  the common same-window record a single map-free hit (std::map
     *  nodes are pointer-stable). */
    std::map<std::uint64_t, std::map<std::uint8_t, WindowStageCell>>
        stageWindows;
    std::uint64_t cachedWindow = ~std::uint64_t{0};
    std::map<std::uint8_t, WindowStageCell> *cachedRow = nullptr;
    std::vector<Source> sources;
    /** window index -> cumulative samples. */
    std::map<std::uint64_t, SampleRow> samples;
    afa::sim::Simulator *simPtr = nullptr; ///< from start() to finish()
};

} // namespace afa::obs

#endif // AFA_OBS_TELEMETRY_HH
