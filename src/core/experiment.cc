#include "core/experiment.hh"

#include <memory>

#include "core/system_report.hh"
#include "obs/span_log.hh"
#include "sim/logging.hh"
#include "workload/fio_thread.hh"

namespace afa::core {

using afa::sim::Simulator;
using afa::workload::FioThread;
using afa::workload::OpenLoopEngine;

namespace {

/**
 * The system under test and its observers for one run, built the same
 * way for the closed- and open-loop paths.
 */
struct Testbed
{
    std::unique_ptr<AfaSystem> system;
    std::unique_ptr<afa::obs::SpanLog> spanLog;
    /** The span log exists only to feed telemetry's windowed
     *  histograms (no trace artifact was requested); its
     *  attribution/metrics never reach the result, so reports stay
     *  byte-identical with telemetry on or off. */
    bool internalTrace = false;
    std::unique_ptr<afa::obs::Telemetry> telemetry;
};

/** Build the AfaSystem, span log and telemetry of one run, then
 *  precondition the FTLs. */
Testbed
buildTestbed(Simulator &sim, const ExperimentParams &params,
             const TuningConfig &tuning)
{
    AfaSystemParams sys_params;
    sys_params.ssds = params.ssds;
    sys_params.topology = params.topology;
    sys_params.kernel = tuning.kernel;
    sys_params.firmware = tuning.firmware;
    sys_params.pinIrqAffinity = tuning.pinIrqAffinity;
    sys_params.ftl = params.ftl;
    sys_params.faults = params.faults;
    sys_params.deviceFastPath = params.deviceFastPath;
    if (!params.backgroundLoad)
        sys_params.background = afa::host::BackgroundParams::none();
    if (params.smartPeriod > 0)
        sys_params.firmware.smart.period = params.smartPeriod;
    if (params.irqBalanceInterval > 0)
        sys_params.kernel.irq.irqBalanceInterval =
            params.irqBalanceInterval;

    Testbed tb;
    tb.system = std::make_unique<AfaSystem>(sim, sys_params);
    afa::obs::TraceParams trace;
    trace.mask = params.traceMask;
    trace.capacity = params.traceCapacity;
    if (params.traceMask != 0) {
        tb.spanLog = std::make_unique<afa::obs::SpanLog>(trace);
        tb.system->setSpanLog(tb.spanLog.get());
    }
    if (params.telemetryWindow > 0) {
        afa::obs::TelemetryParams tp;
        tp.window = params.telemetryWindow;
        tb.telemetry = std::make_unique<afa::obs::Telemetry>(tp);
        if (!tb.spanLog) {
            trace.mask = afa::obs::kAllCategories;
            tb.spanLog = std::make_unique<afa::obs::SpanLog>(trace);
            tb.system->setSpanLog(tb.spanLog.get());
            tb.internalTrace = true;
        }
        tb.spanLog->setTelemetry(tb.telemetry.get());
        tb.system->attachTelemetry(*tb.telemetry);
    }
    if (params.preconditionFraction > 0.0)
        for (unsigned d = 0; d < params.ssds; ++d)
            tb.system->ssd(d).ftl().precondition(
                params.preconditionFraction);
    return tb;
}

/**
 * Fold one finished run's system-wide outputs into @p result: the
 * telemetry timeline, the event count, the system report and, when a
 * trace artifact or a fault plan asks for them, attribution, spans
 * and component metrics (@p engine adds the open-loop counters).
 */
void
collectRun(Testbed &tb, const Simulator &sim,
           const ExperimentParams &params, bool keep_spans,
           const OpenLoopEngine *engine, ExperimentResult &result)
{
    if (tb.telemetry) {
        tb.telemetry->finish();
        result.telemetry.merge(tb.telemetry->timeline());
    }
    result.simulatedEvents += sim.executedEvents();
    if (params.captureSystemReport)
        result.systemReportText = systemReport(*tb.system);
    const bool artifactTrace = tb.spanLog && !tb.internalTrace;
    if (artifactTrace) {
        result.attribution.merge(tb.spanLog->attribution());
        result.spanDrops += tb.spanLog->dropped();
        if (keep_spans)
            result.spans = tb.spanLog->snapshot();
    }
    if (artifactTrace || params.faults) {
        afa::obs::MetricsRegistry registry;
        tb.system->publishMetrics(registry);
        if (engine)
            engine->publishMetrics(registry);
        if (artifactTrace) {
            registry.addCounter("obs.spans_recorded",
                                tb.spanLog->recorded());
            registry.addCounter("obs.span_drops",
                                tb.spanLog->dropped());
        }
        result.systemMetrics.merge(registry.snapshot());
    }
}

/**
 * The open-loop variant: one arrival-driven engine over every SSD
 * instead of closed-loop FIO threads. Single run — Table II geometry
 * variants are a closed-loop concept. The end protocol drains
 * in-flight IOs with a bounded grace, never the backlog: at
 * saturation the backlog cannot drain by design, and its depth is
 * part of the measurement (openLoop.totals.finalBacklog).
 */
ExperimentResult
runOpenLoop(const ExperimentParams &params)
{
    afa::host::CpuTopology topo(params.topology);
    Geometry geometry(topo, params.ssds);
    TuningConfig tuning = params.tuningOverride
        ? *params.tuningOverride
        : TuningConfig::forProfile(params.profile, geometry);

    ExperimentResult result;
    result.params = params;
    result.tuning = tuning;
    result.bootCmdline = tuning.kernel.bootCommandLine();
    result.perDevice.resize(params.ssds);
    result.runs = 1;

    Simulator sim(params.seed);
    Testbed tb = buildTestbed(sim, params, tuning);
    AfaSystem &system = *tb.system;
    if (params.polledCompletions)
        afa::sim::warn("experiment: open-loop mode ignores polled "
                       "completions");

    afa::workload::OpenLoopParams ol = *params.openLoop;
    ol.duration = params.runtime;
    ol.rtPriority = tuning.fioRtPriority;
    if (ol.cpus.empty())
        ol.cpus = geometry.fioCpus();
    auto engine = std::make_unique<OpenLoopEngine>(
        sim, "openloop", system.scheduler(), system.ioEngine(),
        params.ssds, ol);
    if (tb.spanLog)
        engine->attachSpanLog(tb.spanLog.get());
    if (tb.telemetry)
        engine->registerTelemetry(*tb.telemetry);

    system.start();
    engine->start(0);
    if (tb.telemetry)
        tb.telemetry->start(sim);

    // Run the measurement, then drain in-flight IOs (only): the
    // grace is bounded so a saturated backlog ends the run with
    // exact finalBacklog/inflightAtEnd accounting instead of
    // stalling forever.
    sim.run(params.runtime + afa::sim::msec(100));
    bool drained = false;
    for (int rounds = 0; rounds < 100 && !drained; ++rounds) {
        drained = engine->finished();
        if (!drained)
            sim.run(sim.now() + afa::sim::msec(10));
    }
    if (!drained)
        afa::sim::warn("experiment: open-loop run did not drain "
                       "in-flight IOs within grace");

    for (unsigned d = 0; d < params.ssds; ++d)
        result.perDevice[d] =
            afa::stats::LatencySummary::fromHistogram(
                afa::sim::strfmt("nvme%u", d),
                engine->deviceHistogram(d));
    result.openLoop = engine->result();
    result.totalIos = result.openLoop.totals.completed;
    const double total_bytes =
        static_cast<double>(result.openLoop.totals.readBytes) +
        static_cast<double>(result.openLoop.totals.writeBytes);
    const double measured_seconds = afa::sim::toSec(params.runtime);
    if (measured_seconds > 0.0)
        result.aggregateGBps = total_bytes / measured_seconds / 1e9;
    collectRun(tb, sim, params, params.keepSpans, engine.get(), result);

    result.aggregate =
        afa::stats::LadderAggregate::across(result.perDevice);
    return result;
}

} // namespace

ExperimentResult
ExperimentRunner::run(const ExperimentParams &params)
{
    if (params.openLoop)
        return runOpenLoop(params);

    afa::host::CpuTopology topo(params.topology);
    Geometry geometry(topo, params.ssds);
    TuningConfig tuning = params.tuningOverride
        ? *params.tuningOverride
        : TuningConfig::forProfile(params.profile, geometry);

    ExperimentResult result;
    result.params = params;
    result.tuning = tuning;
    result.bootCmdline = tuning.kernel.bootCommandLine();
    result.perDevice.resize(params.ssds);

    auto runs = params.placementOverride
        ? std::vector<Run>{*params.placementOverride}
        : geometry.runsFor(params.variant);
    result.runs = static_cast<unsigned>(runs.size());

    double total_bytes = 0.0;
    double measured_seconds = 0.0;

    for (std::size_t run_idx = 0; run_idx < runs.size(); ++run_idx) {
        const Run &placements = runs[run_idx];

        Simulator sim(params.seed + run_idx * 7919);
        Testbed tb = buildTestbed(sim, params, tuning);
        AfaSystem &system = *tb.system;
        if (params.polledCompletions)
            system.setPolledCompletions(true);

        std::vector<std::unique_ptr<FioThread>> threads;
        for (const Placement &p : placements) {
            afa::workload::FioJob job = params.job;
            job.runtime = params.runtime;
            job.cpusAllowed = afa::host::CpuMask(1) << p.cpu;
            job.rtPriority = tuning.fioRtPriority;
            job.polling = params.polledCompletions;
            job.name = afa::sim::strfmt("fio-nvme%u", p.device);
            threads.push_back(std::make_unique<FioThread>(
                sim, job.name, system.scheduler(), system.ioEngine(),
                p.device, job));
            if (p.device < params.scatterDevices)
                threads.back()->attachScatterLog(&result.scatter);
            if (tb.spanLog)
                threads.back()->attachSpanLog(tb.spanLog.get());
        }

        system.start();
        for (auto &t : threads)
            t->start(0);
        if (tb.telemetry)
            tb.telemetry->start(sim);

        // Run to the end of the measurement, then drain stragglers.
        sim.run(params.runtime + afa::sim::msec(100));
        bool drained = false;
        for (int rounds = 0; rounds < 100 && !drained; ++rounds) {
            drained = true;
            for (auto &t : threads)
                if (!t->finished())
                    drained = false;
            if (!drained)
                sim.run(sim.now() + afa::sim::msec(10));
        }
        if (!drained)
            afa::sim::warn("experiment: run %zu did not drain cleanly",
                           run_idx);

        for (std::size_t i = 0; i < placements.size(); ++i) {
            unsigned device = placements[i].device;
            result.perDevice[device] =
                afa::stats::LatencySummary::fromHistogram(
                    afa::sim::strfmt("nvme%u", device),
                    threads[i]->histogram());
            result.totalIos += threads[i]->stats().completed;
            total_bytes +=
                static_cast<double>(threads[i]->stats().readBytes) +
                static_cast<double>(threads[i]->stats().writeBytes);
        }
        measured_seconds += afa::sim::toSec(params.runtime);
        collectRun(tb, sim, params, params.keepSpans && run_idx == 0,
                   nullptr, result);
    }

    result.aggregate =
        afa::stats::LadderAggregate::across(result.perDevice);
    if (measured_seconds > 0.0) {
        // Aggregate throughput of one run's worth of wall time.
        result.aggregateGBps =
            total_bytes / measured_seconds / 1e9 *
            static_cast<double>(runs.size());
    }
    return result;
}

} // namespace afa::core
