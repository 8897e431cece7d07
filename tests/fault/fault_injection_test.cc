/**
 * @file
 * End-to-end fault injection through the full AFA stack: each fault
 * kind produces its signature (inflated tails, driver timeouts, link
 * replays, pipeline stalls), healthy runs are untouched by the
 * subsystem's presence, and faulted runs replay deterministically
 * across repeats and worker counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/afa_system.hh"
#include "core/run_plan.hh"
#include "fault/fault_plan.hh"
#include "pcie/afa_topology.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::core;
using afa::fault::FaultPlan;
using afa::sim::Tick;

namespace {

ExperimentParams
smallParams()
{
    ExperimentParams params;
    params.ssds = 8;
    params.runtime = afa::sim::msec(40);
    params.smartPeriod = afa::sim::msec(20);
    params.irqBalanceInterval = afa::sim::msec(20);
    params.job =
        afa::workload::FioJob::parse("rw=randread bs=4k iodepth=1");
    return params;
}

ExperimentParams
faultedParams(const char *spec)
{
    auto params = smallParams();
    params.faults = std::make_shared<FaultPlan>(
        FaultPlan::parseText(spec));
    return params;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    ASSERT_EQ(a.perDevice.size(), b.perDevice.size());
    for (std::size_t d = 0; d < a.perDevice.size(); ++d) {
        const auto &lhs = a.perDevice[d];
        const auto &rhs = b.perDevice[d];
        EXPECT_EQ(lhs.samples, rhs.samples);
        EXPECT_EQ(lhs.meanUs, rhs.meanUs);
        EXPECT_EQ(lhs.maxUs, rhs.maxUs);
        for (std::size_t p = 0; p < lhs.ladderUs.size(); ++p)
            EXPECT_EQ(lhs.ladderUs[p], rhs.ladderUs[p]);
    }
    EXPECT_EQ(a.totalIos, b.totalIos);
    // The fault counters are part of the replay contract too.
    for (const char *name :
         {"driver.timeouts", "driver.retries", "driver.aborts",
          "driver.stale_completions", "nvme.dropped_commands",
          "nvme.fault_stall_ticks", "fabric.link_replays",
          "fault.events_applied", "fault.events_reverted"})
        EXPECT_EQ(a.systemMetrics.counter(name),
                  b.systemMetrics.counter(name))
            << name;
}

/** A quiet 4-SSD array: no background load, no SMART polls. */
AfaSystemParams
quietArrayParams(std::shared_ptr<const FaultPlan> plan)
{
    AfaSystemParams params;
    params.ssds = 4;
    params.background = afa::host::BackgroundParams::none();
    params.firmware.smart.enabled = false;
    params.faults = std::move(plan);
    return params;
}

class FaultInjectionTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(FaultInjectionTest, LimpInflatesTheTargetsTail)
{
    auto healthy = ExperimentRunner::run(smallParams());
    auto limped = ExperimentRunner::run(faultedParams(
        "limp ssd=3 at_ms=10 dur_ms=20 factor=50\n"));

    // The limping device's worst-case inflates far beyond anything a
    // healthy run produces; the window closes again before the end.
    EXPECT_GT(limped.perDevice[3].maxUs, healthy.perDevice[3].maxUs);
    EXPECT_GT(limped.systemMetrics.counter("nvme.fault_stall_ticks"),
              0u);
    EXPECT_EQ(limped.systemMetrics.counter("fault.events_applied"),
              1u);
    EXPECT_EQ(limped.systemMetrics.counter("fault.events_reverted"),
              1u);
    EXPECT_GT(limped.totalIos, 0u);
}

TEST_F(FaultInjectionTest, DropoutDrivesTimeoutRetryAbort)
{
    auto result = ExperimentRunner::run(faultedParams(
        "timeout_ms 1\n"
        "max_retries 1\n"
        "retry_backoff_ms 0.2\n"
        "dropout ssd=5 at_ms=10 dur_ms=15\n"));

    // Commands sent into the dead window are silently dropped; the
    // driver times out, retries, and finally aborts them.
    EXPECT_GT(result.systemMetrics.counter("nvme.dropped_commands"),
              0u);
    EXPECT_GT(result.systemMetrics.counter("driver.timeouts"), 0u);
    EXPECT_GT(result.systemMetrics.counter("driver.retries"), 0u);
    EXPECT_GT(result.systemMetrics.counter("driver.aborts"), 0u);
    // The device recovers: it still completed IOs over the run.
    EXPECT_GT(result.perDevice[5].samples, 0u);
}

TEST_F(FaultInjectionTest, SlowDeviceCompletionsAfterTimeoutAreStale)
{
    // A limping device with a too-tight timeout answers *after* the
    // driver gave up on the command: the late completion must be
    // swallowed as stale, not crash the completion path.
    auto result = ExperimentRunner::run(faultedParams(
        "timeout_ms 0.05\n"
        "max_retries 2\n"
        "retry_backoff_ms 0.05\n"
        "limp ssd=2 at_ms=10 dur_ms=20 factor=50\n"));
    EXPECT_GT(result.systemMetrics.counter("driver.timeouts"), 0u);
    EXPECT_GT(
        result.systemMetrics.counter("driver.stale_completions"), 0u);
    EXPECT_GT(result.totalIos, 0u);
}

TEST_F(FaultInjectionTest, LinkErrorsReplayTransfers)
{
    auto result = ExperimentRunner::run(faultedParams(
        "link_error ssd=0 at_ms=5 dur_ms=30 rate=0.3\n"));
    EXPECT_GT(result.systemMetrics.counter("fabric.link_replays"),
              0u);
    // Replays delay but never lose commands: no driver involvement.
    EXPECT_EQ(result.systemMetrics.counter("driver.timeouts"), 0u);
    EXPECT_GT(result.perDevice[0].samples, 0u);
}

TEST_F(FaultInjectionTest, CtrlStallFreezesThePipeline)
{
    auto result = ExperimentRunner::run(faultedParams(
        "ctrl_stall ssd=1 at_ms=10 dur_ms=2\n"));
    EXPECT_GT(result.systemMetrics.counter("nvme.fault_stall_ticks"),
              0u);
    EXPECT_GT(result.perDevice[1].maxUs, 1000.0); // >= the 2 ms freeze
}

TEST_F(FaultInjectionTest, EmptyPlanIsTickIdenticalToNoPlan)
{
    // Loading a plan with no events arms the subsystem (timeouts,
    // metrics) but must not move a single completion by one tick.
    auto without = ExperimentRunner::run(smallParams());
    auto with = ExperimentRunner::run(faultedParams("timeout_ms 50\n"));
    ASSERT_EQ(without.perDevice.size(), with.perDevice.size());
    for (std::size_t d = 0; d < without.perDevice.size(); ++d) {
        EXPECT_EQ(without.perDevice[d].samples,
                  with.perDevice[d].samples);
        EXPECT_EQ(without.perDevice[d].meanUs,
                  with.perDevice[d].meanUs);
        EXPECT_EQ(without.perDevice[d].maxUs,
                  with.perDevice[d].maxUs);
    }
    EXPECT_EQ(without.totalIos, with.totalIos);
    // The healthy run publishes no fault counters at all; the armed
    // one does (all zero here).
    EXPECT_FALSE(without.systemMetrics.find("driver.timeouts"));
    ASSERT_TRUE(with.systemMetrics.find("driver.timeouts"));
    EXPECT_EQ(with.systemMetrics.counter("driver.timeouts"), 0u);
}

TEST_F(FaultInjectionTest, FaultedRunsReplayAcrossWorkerCounts)
{
    auto params = faultedParams(
        "timeout_ms 1\n"
        "dropout ssd=5 at_ms=10 dur_ms=10\n"
        "limp ssd=3 at_ms=5 dur_ms=20 factor=20\n"
        "link_error ssd=0 at_ms=0 dur_ms=40 rate=0.25\n");
    RunPlan plan(params);
    plan.profiles({TuningProfile::Default, TuningProfile::IrqAffinity});
    auto descriptors = plan.expand();

    std::vector<ExperimentResult> serial;
    for (const auto &desc : descriptors)
        serial.push_back(ExperimentRunner::run(desc.params));

    ParallelExperimentRunner one(1);
    auto one_worker = one.run(descriptors);
    ParallelExperimentRunner four(4);
    auto four_workers = four.run(descriptors);

    ASSERT_EQ(one_worker.size(), serial.size());
    ASSERT_EQ(four_workers.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], one_worker[i]);
        expectIdentical(serial[i], four_workers[i]);
    }
    // The faults actually fired in this configuration.
    EXPECT_GT(serial[0].systemMetrics.counter("driver.timeouts"), 0u);
    EXPECT_GT(serial[0].systemMetrics.counter("fabric.link_replays"),
              0u);
}

TEST_F(FaultInjectionTest, DeviceFastPathIsExactUnderEveryFaultKind)
{
    // The device command fast path must not move a faulted run by one
    // tick: a stall, a dropout or a limp acts on a command as it
    // reaches the device, where both models take it, so
    // --device-fastpath {0,1} are tick-identical.
    //
    // Every FOB read fast-paths, inside a limp window too. The
    // disabled run is all-chained by construction.
    for (const char *spec :
         {"limp ssd=3 at_ms=10 dur_ms=20 factor=50\n",
          "ctrl_stall ssd=1 at_ms=10 dur_ms=2\n",
          "timeout_ms 1\n"
          "max_retries 1\n"
          "retry_backoff_ms 0.2\n"
          "dropout ssd=5 at_ms=10 dur_ms=15\n"}) {
        auto on = faultedParams(spec);
        auto off = faultedParams(spec);
        off.deviceFastPath = false;
        auto a = ExperimentRunner::run(on);
        auto b = ExperimentRunner::run(off);
        expectIdentical(a, b);
        EXPECT_GT(a.systemMetrics.counter("nvme.fast_path_commands"),
                  0u)
            << spec;
        EXPECT_EQ(a.systemMetrics.counter("nvme.fallback_commands"), 0u)
            << spec;
        EXPECT_EQ(b.systemMetrics.counter("nvme.fast_path_commands"),
                  0u)
            << spec;
        // Fewer executed events for the same simulated run is the
        // entire point of the fast path.
        EXPECT_LT(a.simulatedEvents, b.simulatedEvents) << spec;
    }
}

TEST_F(FaultInjectionTest, ControllerFaultEdgesAreOneCountedEventEach)
{
    // Each edge of a controller fault is a single counted event that
    // keeps the books and flips the controller's hook; no plumbing
    // event rides along. The baseline is the same idle array under an
    // empty plan.
    const auto events = [](const char *spec) {
        afa::sim::Simulator sim(3);
        AfaSystem system(sim, quietArrayParams(std::make_shared<FaultPlan>(
                                  FaultPlan::parseText(spec))));
        system.start();
        sim.run(afa::sim::msec(10));
        return std::pair{sim.executedEvents(), sim.plumbingEvents()};
    };
    const auto base = events("");
    const auto faulted = events("limp ssd=0 at_ms=1 dur_ms=2 factor=4\n"
                                "dropout ssd=1 at_ms=2 dur_ms=3\n"
                                "ctrl_stall ssd=2 at_ms=3 dur_ms=1\n");
    EXPECT_EQ(faulted.first - base.first, 2u * 3u);
    EXPECT_EQ(faulted.second, base.second);
}

/**
 * The tick a command submitted at @p submit_at reaches ssd @p ssd of
 * quietArrayParams()'s array over an idle fabric.
 */
Tick
commandLands(unsigned ssd, Tick submit_at)
{
    afa::sim::Simulator probe_sim(3);
    afa::pcie::Fabric probe(probe_sim, "probe");
    afa::pcie::AfaTopologyParams shape;
    shape.ssds = 4;
    const afa::pcie::AfaTopology topo =
        afa::pcie::buildAfaTopology(probe, shape);
    return submit_at +
        probe.unloadedLatency(topo.host, topo.ssds[ssd], kSqeBytes);
}

/**
 * One read to @p fault's SSD, submitted from CPU 0 at @p submit_at on
 * quietArrayParams() with @p fault as the whole plan; returns that
 * SSD's stats 2 ms after the fault's onset.
 */
afa::nvme::ControllerStats
oneReadUnderFault(const afa::fault::FaultEvent &fault, Tick submit_at)
{
    auto plan = std::make_shared<FaultPlan>();
    plan->events.push_back(fault);
    afa::sim::Simulator sim(3);
    AfaSystem system(sim, quietArrayParams(plan));
    system.start();
    sim.scheduleAt(submit_at, [&] {
        afa::workload::IoRequest req;
        req.device = fault.ssd;
        system.ioEngine().submit(0, req,
                                 [](const afa::workload::IoResult &) {});
    });
    sim.run(fault.at + afa::sim::msec(2));
    return system.ssd(fault.ssd).stats();
}

TEST_F(FaultInjectionTest, DeliveryOnDropoutOnsetTickIsDropped)
{
    // Same-tick order: the fault engine posts its edges before the
    // run, so a dropout onset runs ahead of the command's delivery on
    // its tick. A read whose command lands on the exact tick its SSD
    // drops out is therefore lost; one tick later the command got in
    // first.
    const unsigned ssd = 2;
    const Tick submit_at = afa::sim::msec(1);
    const Tick lands = commandLands(ssd, submit_at);

    const auto dropped = [&](Tick onset) {
        afa::fault::FaultEvent dropout;
        dropout.kind = afa::fault::FaultKind::Dropout;
        dropout.ssd = ssd;
        dropout.at = onset;
        dropout.duration = afa::sim::msec(1);
        return oneReadUnderFault(dropout, submit_at).droppedCommands;
    };
    EXPECT_EQ(dropped(lands), 1u);
    EXPECT_EQ(dropped(lands + 1), 0u);
}

TEST_F(FaultInjectionTest, ReadArrivingOnLimpOnsetTickIsLimped)
{
    // Same-tick order: a limp onset runs ahead of every event the run
    // posts for its tick, a command's delivery included. A read takes
    // the limp factor in force as it reaches its SSD, so a FOB read
    // landing on the onset tick is limped, as with an onset one tick
    // earlier, and still takes the fast path. With an onset one tick
    // later it is served healthy, though it is still in the pipeline
    // then.
    const unsigned ssd = 1;
    const Tick submit_at = afa::sim::msec(1);
    const Tick lands = commandLands(ssd, submit_at);
    const Tick pipe_exit =
        lands + afa::nvme::FirmwareConfig{}.readProcTime;

    const auto read_under = [&](Tick onset) {
        afa::fault::FaultEvent limp;
        limp.kind = afa::fault::FaultKind::Limp;
        limp.ssd = ssd;
        limp.at = onset;
        limp.duration = afa::sim::msec(1);
        limp.factor = 4.0;
        return oneReadUnderFault(limp, submit_at);
    };
    const afa::nvme::ControllerStats early = read_under(lands - 1);
    EXPECT_GT(early.faultStallDelay, 0u);
    const afa::nvme::ControllerStats on_tick = read_under(lands);
    EXPECT_EQ(on_tick.faultStallDelay, early.faultStallDelay);
    EXPECT_EQ(on_tick.fastPathCommands, 1u);
    EXPECT_EQ(read_under(lands + 1).faultStallDelay, 0u);
    EXPECT_EQ(read_under(pipe_exit).faultStallDelay, 0u);
}

TEST_F(FaultInjectionTest, PlanTargetingMissingSsdIsFatal)
{
    EXPECT_THROW(ExperimentRunner::run(faultedParams(
                     "limp ssd=99 at_ms=0 dur_ms=1 factor=2\n")),
                 afa::sim::SimError);
    EXPECT_THROW(ExperimentRunner::run(faultedParams(
                     "link_error ssd=99 at_ms=0 dur_ms=1 rate=0.1\n")),
                 afa::sim::SimError);
}

} // namespace
