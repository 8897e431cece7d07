/**
 * @file
 * MetricsRegistry: the central named-metrics surface.
 *
 * Components keep their cheap ad-hoc stats structs (FabricStats,
 * IrqStats, ...) for hot-path counting; at the end of a run the
 * experiment runner publishes them into one registry of named
 * counters. The registry is the single exposure point: its
 * snapshot embeds into the --metrics-json artifacts, prints as a
 * table, and merges deterministically across geometry runs and seed
 * replicas. Duration distributions are not registry cells: per-stage
 * ones live in Log2Histogram (Attribution, Telemetry), per-IO ones in
 * stats::Histogram.
 *
 * Naming convention: "<component>.<metric>", e.g.
 * "fabric.fast_path_packets", "irq.remote_deliveries",
 * "sched.cstate_wakes", "obs.span_drops".
 *
 * Thread safety: the registry is internally synchronised (annotated
 * like RunMetricsLog) so concurrent workers may publish into a shared
 * instance; snapshots are plain copyable data ordered by name, so
 * everything downstream is deterministic.
 */

#ifndef AFA_OBS_METRICS_HH
#define AFA_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sync.hh"
#include "core/thread_annotations.hh"
#include "stats/table.hh"

namespace afa::obs {

/** What a telemetry series samples (the registry holds counters
 *  only). */
enum class MetricKind : std::uint8_t {
    Counter, ///< monotonically accumulated integer
    Gauge,   ///< last-set floating point value
};

/** One counter in a snapshot (plain data, copyable). */
struct MetricSample
{
    std::string name;
    std::uint64_t count = 0;
};

/** A point-in-time copy of a registry, ordered by metric name. */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;

    /** Counters of the same name add. */
    void merge(const MetricsSnapshot &other);

    /** Lookup by exact name (nullptr when absent). */
    const MetricSample *find(const std::string &name) const;

    /** Value of a counter (0 when absent). */
    std::uint64_t counter(const std::string &name) const;

    /** JSON object string, every label escaped via stats::jsonEscape. */
    std::string toJson(const std::string &indent = "") const;

    /** name | value table. */
    afa::stats::Table table() const;

    bool empty() const { return samples.empty(); }
};

/** The registry. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Add @p delta to the named counter (created at 0). */
    void addCounter(const std::string &name, std::uint64_t delta)
        AFA_EXCLUDES(mutex);

    /** Copy out every cell, ordered by name. */
    MetricsSnapshot snapshot() const AFA_EXCLUDES(mutex);

  private:
    mutable afa::sync::Mutex mutex;
    /** std::map: deterministic name order for snapshots. */
    std::map<std::string, std::uint64_t> counters AFA_GUARDED_BY(mutex);
};

} // namespace afa::obs

#endif // AFA_OBS_METRICS_HH
