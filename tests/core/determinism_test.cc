/**
 * @file
 * Byte-identity suite for the serial schedule: reduced-scale twins of
 * the fig06/fig09/fig14, fault-tail and frontier benches, rendered to
 * their canonical report strings and pinned by hash. A pinned hash
 * changes only when the schedule itself changes (event order, same-tick
 * order, RNG forks, event accounting) or a printed column's rule does,
 * so any refactor of the event core or the model plumbing must leave
 * every constant below intact.
 * The remaining cases check that tracing, telemetry and the parallel
 * sweep runner (--jobs) never move a byte of that output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_plan.hh"
#include "fault/fault_plan.hh"
#include "obs/span.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace afa::core;
using afa::sim::hashTag;
using afa::sim::msec;

namespace {

class DeterminismTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /** A reduced fig-style config: 8 SSDs over a short run keeps each
     *  execution well under a second. */
    static ExperimentParams
    baseParams(TuningProfile profile)
    {
        ExperimentParams p;
        p.profile = profile;
        p.ssds = 8;
        p.runtime = msec(100);
        p.smartPeriod = msec(40);
        p.irqBalanceInterval = msec(40);
        p.seed = 20260808;
        return p;
    }

    /**
     * Everything the figures print, plus the event count. Wall-clock
     * rates are intentionally absent -- they are the only output the
     * determinism contract excludes.
     */
    static std::string
    canonical(const ExperimentResult &r)
    {
        std::ostringstream os;
        os << describeExperiment(r) << perDeviceTable(r).toString()
           << '\n'
           << envelopeTable(r).toString() << '\n'
           << "runs=" << r.runs << " events=" << r.simulatedEvents
           << " spanDrops=" << r.spanDrops << '\n'
           << r.attribution.table().toString();
        return os.str();
    }

    /** The frontier bench's base config at test scale: open-loop
     *  mixed bursty traffic with a zipfian hot spot, exercising every
     *  Rng fork the engine owns. */
    static ExperimentParams
    openLoopParams()
    {
        auto p = baseParams(TuningProfile::Default);
        afa::workload::OpenLoopParams ol;
        ol.arrival.burstFactor = 4.0;
        ol.arrival.ratePerSec = 100000.0;
        ol.streams = 2;
        ol.readFraction = 0.7;
        ol.zipfTheta = 0.9;
        p.openLoop = ol;
        return p;
    }

    /** Everything the frontier figure prints from the open-loop
     *  slice, plus the event count: counters, per-stream accounting
     *  and the response-histogram shape. */
    static std::string
    openLoopCanonical(const ExperimentResult &r)
    {
        std::ostringstream os;
        const auto stream = [&os](const char *tag,
                                  const afa::workload::
                                      OpenLoopStreamStats &s) {
            os << tag << " arrivals=" << s.arrivals << " submitted="
               << s.submitted << " completed=" << s.completed
               << " dropped=" << s.dropped << " errors=" << s.errors
               << " rd=" << s.readBytes << " wr=" << s.writeBytes
               << " peak=" << s.backlogPeak << " backlog="
               << s.finalBacklog << " inflight=" << s.inflightAtEnd
               << " gt1ms=" << s.exceed[0] << '\n';
        };
        stream("totals", r.openLoop.totals);
        for (std::size_t i = 0; i < r.openLoop.perStream.size(); ++i)
            stream(afa::sim::strfmt("s%zu", i).c_str(),
                   r.openLoop.perStream[i]);
        const auto &h = r.openLoop.responseHist;
        os << "hist n=" << h.count() << " min=" << h.min() << " max="
           << h.max() << " p50=" << h.quantile(0.50) << " p99="
           << h.quantile(0.99) << '\n'
           << "events=" << r.simulatedEvents << '\n';
        return os.str();
    }

    /** The five-event plan of the fault-tail bench at test scale:
     *  limp, two link-error windows, a dropout and a controller
     *  stall, with timeouts and retries armed. */
    static std::shared_ptr<afa::fault::FaultPlan>
    faultPlan()
    {
        return std::make_shared<afa::fault::FaultPlan>(
            afa::fault::FaultPlan::parseText(
                "timeout_ms 10\n"
                "max_retries 3\n"
                "retry_backoff_ms 1\n"
                "limp       ssd=1 at_ms=20 dur_ms=60 factor=6\n"
                "link_error ssd=2 at_ms=10 dur_ms=80 rate=0.15\n"
                "link_error ssd=6 at_ms=30 dur_ms=50 rate=0.10\n"
                "dropout    ssd=4 at_ms=50 dur_ms=12\n"
                "ctrl_stall ssd=0 at_ms=40 dur_ms=3\n",
                "<determinism_test>"));
    }

    static std::uint64_t
    runHash(const ExperimentParams &p)
    {
        return hashTag(canonical(ExperimentRunner::run(p)));
    }
};

TEST_F(DeterminismTest, Fig06DefaultProfilePinned)
{
    EXPECT_EQ(runHash(baseParams(TuningProfile::Default)),
              0x1658d52e0301aa00ULL);
}

TEST_F(DeterminismTest, Fig09IrqAffinityTracedPinned)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.traceMask = afa::obs::kAllCategories;
    EXPECT_EQ(runHash(params), 0x8945c57af23882cbULL);
}

TEST_F(DeterminismTest, Fig14GeometryVariantPinned)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.variant = GeometryVariant::OnePerCore;
    EXPECT_EQ(runHash(params), 0x330b01be4d21c5a0ULL);
}

TEST_F(DeterminismTest, FaultPlanPinned)
{
    // Limp/dropout/stall mutate controllers through fault-edge events
    // posted before the run; link errors draw from per-link RNG
    // streams. A read takes the limp factor in force as it reaches
    // its SSD, so FOB reads take the fast path on a limping drive.
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.faults = faultPlan();
    EXPECT_EQ(runHash(params), 0x1cf9bd4e23a9702dULL);

    // And with tracing stacked on top of the faulted run.
    params.traceMask = afa::obs::kAllCategories;
    EXPECT_EQ(runHash(params), 0x4b4913234c5f6530ULL);
}

TEST_F(DeterminismTest, OpenLoopPinnedWithExactAccounting)
{
    // The open-loop contract (DESIGN.md §14): every draw comes from
    // named per-stream forks, so the frontier-style canonical output
    // is pinned and unmoved by telemetry sampling.
    const auto params = openLoopParams();
    const auto result = ExperimentRunner::run(params);
    const std::string base = openLoopCanonical(result);
    EXPECT_EQ(hashTag(base), 0x75caa441b49b6b42ULL);
    // The run did real open-loop work with exact accounting.
    EXPECT_FALSE(result.openLoop.empty());
    const auto &t = result.openLoop.totals;
    EXPECT_GT(t.completed, 1000u);
    EXPECT_EQ(t.arrivals, t.submitted + t.dropped + t.finalBacklog);
    EXPECT_EQ(t.submitted, t.completed + t.inflightAtEnd);

    auto telem = params;
    telem.telemetryWindow = msec(10);
    const auto sampled = ExperimentRunner::run(telem);
    EXPECT_EQ(openLoopCanonical(sampled), base);
    EXPECT_FALSE(sampled.telemetry.empty());
}

TEST_F(DeterminismTest, AgedNandOpenLoopPinned)
{
    // The aged_nand_mixed benchmark shape at test scale: full drives
    // under open-loop reads and writes, so every command runs the
    // chained device model through the FTL and NAND. Every other pin
    // starts its drives FOB.
    auto params = baseParams(TuningProfile::ExpFirmware);
    params.preconditionFraction = 1.0;
    afa::workload::OpenLoopParams ol;
    ol.arrival.ratePerSec = 200000.0;
    ol.readFraction = 0.7;
    params.openLoop = ol;
    const auto result = ExperimentRunner::run(params);
    EXPECT_EQ(hashTag(openLoopCanonical(result) +
                      perDeviceTable(result).toString()),
              0x831a38053e467bd3ULL);
    const auto &t = result.openLoop.totals;
    EXPECT_GT(t.completed, 1000u);
    EXPECT_GT(t.writeBytes, 0u);
}

TEST_F(DeterminismTest, DeviceFastPathMovesOnlyTheEventCount)
{
    // Mixed open-loop traffic (bursty, zipf, 30% writes) with the
    // device command fast path on and off. The fast path serves only
    // unmapped reads, each as the exact twin of its chained model, so
    // every printed byte but the event count agrees.
    auto params = openLoopParams();
    const auto fast = ExperimentRunner::run(params);
    params.deviceFastPath = false;
    const auto chained = ExperimentRunner::run(params);
    const auto without_events = [](const ExperimentResult &r) {
        const std::string text = openLoopCanonical(r);
        return text.substr(0, text.rfind("events="));
    };
    EXPECT_EQ(without_events(fast), without_events(chained));
    EXPECT_LT(fast.simulatedEvents, chained.simulatedEvents);
}

TEST_F(DeterminismTest, TracingDoesNotPerturbTheModel)
{
    // The traced and untraced runs must agree on everything but the
    // attribution section (absent when untraced).
    auto params = baseParams(TuningProfile::IrqAffinity);
    auto untraced = ExperimentRunner::run(params);
    params.traceMask = afa::obs::kAllCategories;
    auto traced = ExperimentRunner::run(params);
    EXPECT_EQ(describeExperiment(traced), describeExperiment(untraced));
    EXPECT_EQ(perDeviceTable(traced).toString(),
              perDeviceTable(untraced).toString());
    EXPECT_EQ(traced.simulatedEvents, untraced.simulatedEvents);
    EXPECT_GT(traced.simulatedEvents, 100000u);
}

TEST_F(DeterminismTest, TelemetryOnOffBitIdentical)
{
    // The telemetry contract (DESIGN.md §13): samples are taken
    // between ticks and are not events, so enabling --telemetry must
    // leave every canonical report byte-identical.
    const auto off = baseParams(TuningProfile::Default);
    const std::string base = canonical(ExperimentRunner::run(off));
    auto on = off;
    on.telemetryWindow = msec(10);
    const auto result = ExperimentRunner::run(on);
    EXPECT_EQ(canonical(result), base);
    // And the run actually produced a timeline.
    EXPECT_FALSE(result.telemetry.empty());
    EXPECT_FALSE(result.telemetry.stages.empty());
}

TEST_F(DeterminismTest, TelemetryOnOffBitIdenticalAcrossJobs)
{
    // The parallel sweep runner: 2 seed replicas rendered at jobs
    // {1,4}, telemetry on and off — all four executions must agree
    // on every canonical report, independent of worker count.
    const auto params = baseParams(TuningProfile::Default);
    const auto render = [&params](afa::sim::Tick window,
                                  unsigned jobs) {
        auto base = params;
        base.telemetryWindow = window;
        RunPlan plan(base);
        plan.seeds(2);
        ParallelExperimentRunner runner(jobs);
        std::string out;
        for (const auto &r : runner.run(plan.expand()))
            out += canonical(r);
        return out;
    };
    const std::string serial_off = render(0, 1);
    EXPECT_EQ(render(0, 4), serial_off);
    EXPECT_EQ(render(msec(10), 1), serial_off);
    EXPECT_EQ(render(msec(10), 4), serial_off);
}

TEST_F(DeterminismTest, OpenLoopBitIdenticalAcrossJobs)
{
    // Seed replicas of the open-loop run through the parallel sweep
    // runner: worker count and telemetry must not move a byte of the
    // merged open-loop slice.
    const auto params = openLoopParams();
    const auto render = [&params](afa::sim::Tick window,
                                  unsigned jobs) {
        auto base = params;
        base.telemetryWindow = window;
        RunPlan plan(base);
        plan.seeds(2);
        ParallelExperimentRunner runner(jobs);
        std::string out;
        for (const auto &r : runner.run(plan.expand()))
            out += openLoopCanonical(r);
        return out;
    };
    const std::string serial_off = render(0, 1);
    EXPECT_EQ(render(0, 4), serial_off);
    EXPECT_EQ(render(msec(10), 1), serial_off);
    EXPECT_EQ(render(msec(10), 4), serial_off);
}

} // namespace
