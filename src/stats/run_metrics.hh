/**
 * @file
 * Per-run execution metrics for the parallel experiment engine.
 *
 * Each experiment run reports how many simulated events it executed
 * and how long it took on the wall clock; the collector aggregates
 * them into the progress summary the figure benches print and the
 * JSON blob the BENCH_*.json artifacts record. The collector is
 * thread-safe: worker threads append concurrently.
 */

#ifndef AFA_STATS_RUN_METRICS_HH
#define AFA_STATS_RUN_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sync.hh"
#include "core/thread_annotations.hh"
#include "stats/table.hh"

namespace afa::stats {

/** Execution metrics of one experiment run. */
struct RunMetrics
{
    std::size_t index = 0;     ///< position in the run plan
    std::string label;         ///< human-readable run label
    std::uint64_t events = 0;  ///< simulated events executed
    std::uint64_t ios = 0;     ///< IOs the run completed
    double wallSeconds = 0.0;  ///< host wall time of the run
    unsigned worker = 0;       ///< worker thread that executed it

    /** Simulated events per wall-clock second (0 when instant). */
    double eventsPerSec() const;

    /**
     * Model events executed per completed IO (0 when the run did no
     * IO). The event-economy figure of merit: fast paths shrink it,
     * model changes that add per-IO events show up here first.
     */
    double eventsPerIo() const;
};

/**
 * Thread-safe collector of RunMetrics.
 */
class RunMetricsLog
{
  public:
    /** Drop all recorded runs. */
    void reset();

    /** Record one finished run. */
    void record(RunMetrics metrics);

    /** Runs finished so far. */
    std::size_t finished() const;

    /** Snapshot of the recorded metrics, ordered by run index. */
    std::vector<RunMetrics> snapshot() const;

    /**
     * Per-run metrics table: index, label, worker, events, wall
     * seconds and events/sec, followed by a totals row.
     */
    Table table(double suite_wall_seconds) const;

    /**
     * JSON object with the suite counters and a per-run array,
     * suitable for embedding into BENCH_*.json artifacts.
     */
    std::string toJson(double suite_wall_seconds,
                       unsigned jobs) const;

  private:
    mutable afa::sync::Mutex mutex;
    std::vector<RunMetrics> runs AFA_GUARDED_BY(mutex);
};

} // namespace afa::stats

#endif // AFA_STATS_RUN_METRICS_HH
