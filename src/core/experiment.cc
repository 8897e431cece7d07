#include "core/experiment.hh"

#include <memory>

#include "core/system_report.hh"
#include "obs/span_log.hh"
#include "sim/logging.hh"
#include "workload/fio_thread.hh"

namespace afa::core {

using afa::workload::FioThread;
using afa::workload::OpenLoopEngine;

namespace {

/** The system @p params and @p tuning describe; a zero period keeps
 *  the firmware or daemon default. */
AfaSystemParams
systemParams(const ExperimentParams &params, const TuningConfig &tuning)
{
    AfaSystemParams sys;
    sys.ssds = params.ssds;
    sys.topology = params.topology;
    sys.kernel = tuning.kernel;
    sys.firmware = tuning.firmware;
    sys.pinIrqAffinity = tuning.pinIrqAffinity;
    sys.ftl = params.ftl;
    sys.faults = params.faults;
    sys.deviceFastPath = params.deviceFastPath;
    if (!params.backgroundLoad)
        sys.background = afa::host::BackgroundParams::none();
    if (params.smartPeriod > 0)
        sys.firmware.smart.period = params.smartPeriod;
    if (params.irqBalanceInterval > 0)
        sys.kernel.irq.irqBalanceInterval = params.irqBalanceInterval;
    return sys;
}

} // namespace

Testbed::Testbed(const ExperimentParams &params,
                 const TuningConfig &tuning, std::uint64_t seed)
    : expParams(params), simulator(seed),
      afaSystem(std::make_unique<AfaSystem>(
          simulator, systemParams(params, tuning)))
{
    // One span log serves tracing and telemetry alike; telemetry
    // alone reads every category. Attribution and telemetry read each
    // span as it is recorded, so only a run whose spans are kept
    // holds a ring.
    const bool traced = params.traceMask != 0;
    if (traced || params.telemetryWindow > 0) {
        afa::obs::TraceParams trace;
        trace.mask = traced ? params.traceMask : afa::obs::kAllCategories;
        trace.capacity =
            traced && params.keepSpans ? params.traceCapacity : 0;
        spans = std::make_unique<afa::obs::SpanLog>(trace);
        afaSystem->setSpanLog(spans.get());
    }
    if (params.telemetryWindow > 0) {
        afa::obs::TelemetryParams tp;
        tp.window = params.telemetryWindow;
        telem = std::make_unique<afa::obs::Telemetry>(tp);
        spans->setTelemetry(telem.get());
        afaSystem->attachTelemetry(*telem);
    }
}

Testbed::~Testbed() = default;

void
Testbed::precondition()
{
    if (expParams.preconditionFraction > 0.0)
        for (unsigned d = 0; d < expParams.ssds; ++d)
            afaSystem->ssd(d).ftl().precondition(
                expParams.preconditionFraction);
}

void
Testbed::start()
{
    afaSystem->start();
    // Sampling posts no event, so starting it before the workload
    // leaves the schedule unchanged.
    if (telem)
        telem->start(simulator);
}

bool
Testbed::runToEnd(Tick until, const std::function<bool()> &finished)
{
    simulator.run(until);
    for (int rounds = 0; rounds < 100; ++rounds) {
        if (finished())
            return true;
        simulator.run(simulator.now() + afa::sim::msec(10));
    }
    return false;
}

void
Testbed::collect(ExperimentResult &result)
{
    if (telem) {
        telem->finish();
        result.telemetry.merge(telem->timeline());
    }
    result.simulatedEvents += simulator.executedEvents();
    if (expParams.captureSystemReport)
        result.systemReportText = systemReport(*afaSystem);
    // A span log that only fed telemetry's windowed histograms keeps
    // its attribution and metrics out, so reports are byte-identical
    // with telemetry on or off.
    const bool traced = expParams.traceMask != 0;
    if (traced) {
        result.attribution.merge(spans->attribution());
        result.spanDrops += spans->dropped();
        if (expParams.keepSpans)
            result.spans = spans->snapshot();
    }
    if (traced || expParams.faults) {
        afa::obs::MetricsRegistry registry;
        afaSystem->publishMetrics(registry);
        if (traced) {
            registry.addCounter("obs.spans_recorded", spans->recorded());
            registry.addCounter("obs.span_drops", spans->dropped());
        }
        result.systemMetrics.merge(registry.snapshot());
    }
}

ExperimentResult
ExperimentRunner::run(const ExperimentParams &params)
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

    // Open-loop traffic is one arrival-driven run over every SSD:
    // Table II geometry variants are a closed-loop concept.
    std::vector<Run> runs(1);
    if (params.openLoop) {
        if (params.polledCompletions)
            afa::sim::warn("experiment: open-loop mode ignores polled "
                           "completions");
    } else if (params.placementOverride) {
        runs[0] = *params.placementOverride;
    } else {
        runs = geometry.runsFor(params.variant);
    }
    result.runs = static_cast<unsigned>(runs.size());

    double total_bytes = 0.0;
    double measured_seconds = 0.0;
    // Only the first geometry run keeps its spans.
    ExperimentParams later_params = params;
    later_params.keepSpans = false;

    for (std::size_t run_idx = 0; run_idx < runs.size(); ++run_idx) {
        const Run &placements = runs[run_idx];

        Testbed tb(run_idx == 0 ? params : later_params, tuning,
                   params.seed + run_idx * 7919);
        tb.precondition();
        AfaSystem &system = tb.system();

        std::unique_ptr<OpenLoopEngine> engine;
        std::vector<std::unique_ptr<FioThread>> threads;
        if (params.openLoop) {
            afa::workload::OpenLoopParams ol = *params.openLoop;
            ol.duration = params.runtime;
            ol.rtPriority = tuning.fioRtPriority;
            if (ol.cpus.empty())
                ol.cpus = geometry.fioCpus();
            engine = std::make_unique<OpenLoopEngine>(
                tb.sim(), "openloop", system.scheduler(),
                system.ioEngine(), params.ssds, ol);
            if (tb.spanLog())
                engine->attachSpanLog(tb.spanLog());
            if (tb.telemetry())
                engine->registerTelemetry(*tb.telemetry());
            system.addMetricsSource(
                [&ol_engine = *engine](afa::obs::MetricsRegistry &r) {
                    ol_engine.publishMetrics(r);
                });
        } else {
            system.setPolledCompletions(params.polledCompletions);
            for (const Placement &p : placements) {
                afa::workload::FioJob job = params.job;
                job.runtime = params.runtime;
                job.cpusAllowed = afa::host::CpuMask(1) << p.cpu;
                job.rtPriority = tuning.fioRtPriority;
                job.polling = params.polledCompletions;
                job.name = afa::sim::strfmt("fio-nvme%u", p.device);
                threads.push_back(std::make_unique<FioThread>(
                    tb.sim(), job.name, system.scheduler(),
                    system.ioEngine(), p.device, job));
                if (p.device < params.scatterDevices)
                    threads.back()->attachScatterLog(&result.scatter);
                if (tb.spanLog())
                    threads.back()->attachSpanLog(tb.spanLog());
            }
        }

        tb.start();
        if (engine)
            engine->start(0);
        for (auto &t : threads)
            t->start(0);

        // Run to the end of the measurement, then drain in-flight IOs
        // (never an open-loop backlog: at saturation it cannot drain
        // by design, and its depth is part of the measurement).
        const bool drained =
            tb.runToEnd(params.runtime + afa::sim::msec(100), [&] {
                if (engine)
                    return engine->finished();
                for (const auto &t : threads)
                    if (!t->finished())
                        return false;
                return true;
            });
        if (!drained)
            afa::sim::warn("experiment: run %zu did not drain in-flight "
                           "IOs within grace",
                           run_idx);

        if (engine) {
            for (unsigned d = 0; d < params.ssds; ++d)
                result.perDevice[d] =
                    afa::stats::LatencySummary::fromHistogram(
                        afa::sim::strfmt("nvme%u", d),
                        engine->deviceHistogram(d));
            result.openLoop = engine->result();
            result.totalIos = result.openLoop.totals.completed;
            total_bytes =
                static_cast<double>(result.openLoop.totals.readBytes) +
                static_cast<double>(result.openLoop.totals.writeBytes);
        }
        for (std::size_t i = 0; i < threads.size(); ++i) {
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
        tb.collect(result);
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
