/**
 * @file
 * The experiment runner: builds a fresh simulated testbed for a
 * tuning profile + geometry variant, drives the paper's FIO workload
 * over it, and collects the per-SSD latency summaries the figures
 * plot. Table II variants that need multiple runs over disjoint SSD
 * sets are executed back to back and merged, like the paper did.
 * Testbed is the one place a run's system is built; the benches that
 * drive a volume or a single SSD build theirs on it too.
 */

#ifndef AFA_CORE_EXPERIMENT_HH
#define AFA_CORE_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/afa_system.hh"
#include "core/geometry.hh"
#include "core/tuning.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "sim/simulator.hh"
#include "stats/scatter_log.hh"
#include "stats/summary.hh"
#include "workload/fio_job.hh"
#include "workload/openloop.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::core {

using afa::sim::Tick;

/** Parameters of one figure-style experiment. */
struct ExperimentParams
{
    TuningProfile profile = TuningProfile::Default;
    GeometryVariant variant = GeometryVariant::FourPerCore;
    unsigned ssds = 64;
    std::uint64_t seed = 1;

    /** Per-thread measurement duration (the paper used 120 s). */
    Tick runtime = afa::sim::sec(4);

    /**
     * Time compression: the paper's SMART fired every ~30 s over a
     * 120 s run; short simulations scale the period to keep the same
     * spikes-per-run ratio. 0 keeps the firmware default.
     */
    Tick smartPeriod = afa::sim::sec(1);

    /** Scaled irqbalance rescan interval (daemon default 10 s). */
    Tick irqBalanceInterval = afa::sim::sec(1);

    /** The workload (runtime/cpus_allowed/rtprio filled per thread). */
    afa::workload::FioJob job;

    /** Log raw samples for the first N devices (Fig. 10). */
    unsigned scatterDevices = 0;

    /** Run the CentOS 7 background zoo (off for calibration). */
    bool backgroundLoad = true;

    /** Override the number of host CPUs etc. when non-default. */
    afa::host::CpuTopologyParams topology;

    /**
     * Ablation hook: use this exact tuning configuration instead of
     * expanding `profile` (profile is still recorded for reports).
     */
    std::optional<TuningConfig> tuningOverride;

    /** Pre-map this fraction of every drive (0 = FOB, the paper). */
    double preconditionFraction = 0.0;

    /** FTL geometry/policy for aged-drive experiments. */
    afa::nvme::FtlParams ftl;

    /**
     * Deliver completions by polling instead of MSI-X interrupts
     * (the Section V discussion / Yang et al. comparison). Requires
     * iodepth=1 jobs.
     */
    bool polledCompletions = false;

    /** Capture the systemReport() of each run into the result. */
    bool captureSystemReport = false;

    /**
     * Explicit thread placements (device -> CPU) instead of the
     * Table II expansion of `variant`. Used by the NUMA ablation to
     * pin threads to uplink-local or remote sockets.
     */
    std::optional<Run> placementOverride;

    /**
     * Single-event device command fast path (DESIGN.md §9). Off
     * forces the chained event model on every controller; results
     * are bit-identical either way, only the executed-event count
     * (and wall time) differ. The regression suites A/B this knob.
     */
    bool deviceFastPath = true;

    /**
     * Span-tracing category mask (obs::Category bits). 0 keeps every
     * instrumentation site disabled: no SpanLog is even constructed,
     * so the run is bit-identical to an untraced build.
     */
    std::uint32_t traceMask = 0;

    /**
     * Span ring capacity (records; 32 bytes each) of the run that
     * keeps its spans. Other runs hold no ring.
     */
    std::size_t traceCapacity = std::size_t(1) << 20;

    /**
     * Keep the raw span records of the *first* geometry run in the
     * result (for Perfetto export). Attribution totals always cover
     * every run; raw records of one run are plenty for a timeline
     * and keep result sizes bounded. This is the ring's one reader:
     * a traced run without it holds no ring and drops no span.
     */
    bool keepSpans = false;

    /**
     * Optional fault plan applied to every geometry run (nullptr =
     * healthy). Shared because ExperimentParams is copied into each
     * parallel-sweep RunDescriptor; all replicas reference one parse.
     * Loading a plan also publishes component metrics into the
     * result even when tracing is off.
     */
    std::shared_ptr<const afa::fault::FaultPlan> faults;

    /**
     * Open-loop arrival-driven traffic (DESIGN.md §14) instead of
     * the closed-loop FIO threads when set. One run over all SSDs:
     * geometry variants and placement overrides do not apply; the
     * engine duration is `runtime`, and empty `cpus` expands to the
     * geometry's FIO CPU list. The result's openLoop slice carries
     * the offered/completed rates, backlog accounting and the
     * whole-run response histogram.
     */
    std::optional<afa::workload::OpenLoopParams> openLoop;

    /**
     * Telemetry sampling window in ticks (0 = off). Non-zero slices
     * the run into simulated-time windows of per-stage latency
     * histograms, sampled counter/gauge series, and the simulator's
     * self-profile (DESIGN.md §13). Samples are taken between ticks
     * and are not events, so every canonical report is
     * byte-identical with telemetry on or off.
     */
    afa::sim::Tick telemetryWindow = 0;
};

/** Result of one experiment (merged across geometry runs). */
struct ExperimentResult
{
    ExperimentParams params;
    TuningConfig tuning;

    /** Per-device summaries in device order (one line per Fig. curve). */
    std::vector<afa::stats::LatencySummary> perDevice;

    /** Mean/stddev per ladder point across devices (Figs. 12/14). */
    afa::stats::LadderAggregate aggregate;

    /** Raw samples when scatterDevices > 0. */
    afa::stats::ScatterLog scatter;

    std::uint64_t totalIos = 0;
    double aggregateGBps = 0.0;
    std::string bootCmdline;
    std::uint64_t simulatedEvents = 0;

    /** Attribution report of the last run (captureSystemReport). */
    std::string systemReportText;

    /** Runs executed (Table II's right column). */
    unsigned runs = 0;

    /** Per-stage latency attribution (traceMask != 0). */
    afa::obs::Attribution attribution;

    /** Raw span records of the first run (keepSpans). */
    std::vector<afa::obs::SpanRecord> spans;

    /** Span records overwritten by ring wrap, summed over runs (0
     *  unless spans are kept: no other run has a ring). */
    std::uint64_t spanDrops = 0;

    /** End-of-run component counters (traceMask != 0). */
    afa::obs::MetricsSnapshot systemMetrics;

    /** Windowed telemetry timeline (telemetryWindow != 0), merged
     *  across geometry runs and seed replicas. */
    afa::obs::TelemetryTimeline telemetry;

    /** Open-loop counters/histogram (params.openLoop set), merged
     *  across seed replicas. */
    afa::workload::OpenLoopResult openLoop;
};

/**
 * One run's testbed, the paper's Fig. 4 setup: a Simulator seeded for
 * the run, the AfaSystem that the params and tuning describe, and the
 * span log and telemetry the params ask for. Three rules live here
 * and nowhere else: how ExperimentParams map onto AfaSystemParams;
 * a zero smartPeriod or irqBalanceInterval keeps the firmware or
 * daemon default; and the span log exists when tracing or telemetry
 * reads it, holds a ring only when the params keep spans, and
 * reaches a report only when the run is traced.
 *
 * A run goes: construct, precondition(), build the workload over
 * system().ioEngine() (attached to spanLog() and telemetry() when
 * they exist), start(), start the workload, run (runToEnd() or
 * sim().run()), collect(). Declare the workload after the testbed so
 * it is destroyed before the system it drives.
 */
class Testbed
{
  public:
    Testbed(const ExperimentParams &params, const TuningConfig &tuning,
            std::uint64_t seed);
    ~Testbed();

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    afa::sim::Simulator &sim() { return simulator; }
    AfaSystem &system() { return *afaSystem; }

    /** The span log workloads attach to (nullptr unless tracing or
     *  telemetry is on). */
    afa::obs::SpanLog *spanLog() { return spans.get(); }

    /** The telemetry collector (nullptr unless telemetryWindow). */
    afa::obs::Telemetry *telemetry() { return telem.get(); }

    /** Pre-map params.preconditionFraction of every drive. */
    void precondition();

    /** Start the system, then telemetry sampling; the caller starts
     *  its workload next. */
    void start();

    /**
     * Run to @p until, then drain in 10 ms steps while @p finished is
     * false, at most 100 steps. The grace is bounded so a saturated
     * open-loop backlog ends the run with exact accounting instead of
     * stalling. Returns whether the workload finished.
     */
    bool runToEnd(Tick until, const std::function<bool()> &finished);

    /**
     * Fold the finished run into @p result: the telemetry timeline,
     * the event count, the system report and, when tracing or a fault
     * plan asks for them, attribution, span drops, the span records
     * (keepSpans) and component metrics (those of
     * AfaSystem::publishMetrics, extra sources included).
     */
    void collect(ExperimentResult &result);

  private:
    ExperimentParams expParams;
    afa::sim::Simulator simulator;
    std::unique_ptr<AfaSystem> afaSystem;
    std::unique_ptr<afa::obs::SpanLog> spans;
    std::unique_ptr<afa::obs::Telemetry> telem;
};

/** Runs experiments. */
class ExperimentRunner
{
  public:
    /** Execute the experiment (possibly several geometry runs). */
    static ExperimentResult run(const ExperimentParams &params);
};

} // namespace afa::core

#endif // AFA_CORE_EXPERIMENT_HH
