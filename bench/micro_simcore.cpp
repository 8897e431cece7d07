/**
 * @file
 * google-benchmark microbenchmarks for the simulator hot paths: the
 * event queue, RNG, histogram, scheduler round trips, and fabric
 * transfers. These bound the wall-clock cost of the figure benches
 * (a Fig. 6 run executes ~10^8 events).
 */

#include <benchmark/benchmark.h>

#include "core/experiment.hh"
#include "host/scheduler.hh"
#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "obs/span_log.hh"
#include "obs/telemetry.hh"
#include "pcie/afa_topology.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"
#include "stats/scatter_log.hh"
#include "workload/arrival.hh"

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    afa::sim::EventQueue q;
    afa::sim::Tick when = 0;
    std::uint64_t t = 0;
    for (auto _ : state) {
        q.schedule(++t, [] {});
        q.runNext(when);
    }
    benchmark::DoNotOptimize(when);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueDeepHeap(benchmark::State &state)
{
    // Schedule/run against a standing population of pending events:
    // each new event lands a random delay after the last popped one
    // (the hold model), so it settles at a random depth of the heap
    // instead of at the root.
    afa::sim::EventQueue q;
    const std::int64_t depth = state.range(0);
    afa::sim::Rng rng(1);
    for (std::int64_t i = 0; i < depth; ++i)
        q.schedule(rng.uniformInt(1, 1u << 30), [] {});
    afa::sim::Tick when = 0;
    for (auto _ : state) {
        q.schedule(when + rng.uniformInt(1, 1u << 30), [] {});
        q.runNext(when);
    }
    benchmark::DoNotOptimize(when);
}
BENCHMARK(BM_EventQueueDeepHeap)->Arg(256)->Arg(1024)->Arg(65536);

void
BM_EventQueueHold(benchmark::State &state)
{
    // The classic hold model run through Simulator::run(): a standing
    // population of events, each of which schedules one successor at
    // now plus a random delay, so each pop leaves the root vacant and
    // the callback's schedule fills it (EventQueue's fused pop). One
    // iteration runs half the delay range, about `depth` events;
    // items_per_second counts events.
    constexpr std::uint64_t kMaxDelay = 1u << 20;
    struct Hold
    {
        afa::sim::Simulator *sim;
        afa::sim::Rng *rng;

        void
        operator()() const
        {
            sim->scheduleAfter(rng->uniformInt(1, kMaxDelay), *this);
        }
    };
    afa::sim::Simulator sim(1);
    afa::sim::Rng rng(1);
    for (std::int64_t i = 0; i < state.range(0); ++i)
        sim.scheduleAt(rng.uniformInt(1, kMaxDelay), Hold{&sim, &rng});
    std::uint64_t events = 0;
    for (auto _ : state)
        events += sim.run(sim.now() + kMaxDelay / 2);
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueHold)->Arg(256)->Arg(1024);

void
BM_EventQueueCapturingEvent(benchmark::State &state)
{
    // The shape of a real simulator event: an object pointer plus a
    // few words of arguments (24-40 bytes) -- past std::function's
    // 16-byte inline buffer, inside EventFn's.
    afa::sim::EventQueue q;
    afa::sim::Tick when = 0;
    std::uint64_t t = 0;
    struct Target
    {
        std::uint64_t acc = 0;
    } target;
    std::uint64_t cmd_id = 7, bytes = 4096, cpu = 3;
    for (auto _ : state) {
        q.schedule(++t, [&target, cmd_id, bytes, cpu] {
            target.acc += cmd_id + bytes + cpu;
        });
        q.runNext(when);
    }
    benchmark::DoNotOptimize(target.acc);
    benchmark::DoNotOptimize(when);
}
BENCHMARK(BM_EventQueueCapturingEvent);

void
BM_EventQueueCancel(benchmark::State &state)
{
    afa::sim::EventQueue q;
    std::uint64_t t = 0;
    for (auto _ : state) {
        auto h = q.schedule(++t, [] {});
        q.cancel(h);
    }
}
BENCHMARK(BM_EventQueueCancel);

void
BM_RngNext(benchmark::State &state)
{
    afa::sim::Rng rng(42);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= rng.next();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNext);

void
BM_RngLognormal(benchmark::State &state)
{
    afa::sim::Rng rng(42);
    double acc = 0;
    for (auto _ : state)
        acc += rng.lognormal(30000.0, 0.1);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngLognormal);

void
BM_HistogramRecord(benchmark::State &state)
{
    afa::stats::Histogram h;
    afa::sim::Rng rng(42);
    for (auto _ : state)
        h.record(static_cast<afa::sim::Tick>(
            rng.lognormal(30000.0, 0.3)));
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void
BM_HistogramQuantile(benchmark::State &state)
{
    afa::stats::Histogram h;
    afa::sim::Rng rng(42);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<afa::sim::Tick>(
            rng.lognormal(30000.0, 0.3)));
    double q = 0.9;
    afa::sim::Tick acc = 0;
    for (auto _ : state) {
        acc ^= h.quantile(q);
        q = q >= 0.9999 ? 0.9 : q + 0.00001;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_HistogramQuantile);

void
BM_SchedulerRunForRoundTrip(benchmark::State &state)
{
    // One task executing back-to-back 2 us segments: the FIO
    // submit/reap hot path.
    afa::sim::Simulator sim(1);
    afa::host::KernelConfig cfg;
    cfg.sched.rcuCallbackInterval = afa::sim::sec(100000);
    afa::host::Scheduler sched(sim, "sched",
                               afa::host::CpuTopology{}, cfg);
    afa::host::TaskParams tp;
    tp.name = "t";
    auto task = sched.createTask(tp);
    for (auto _ : state) {
        bool done = false;
        sched.runFor(task, afa::sim::usec(2), [&] { done = true; });
        while (!done)
            sim.runSteps(1);
    }
}
BENCHMARK(BM_SchedulerRunForRoundTrip);

void
BM_FabricFourHopTransfer(benchmark::State &state)
{
    afa::sim::Simulator sim(1);
    afa::pcie::Fabric fabric(sim, "fabric");
    auto topo = buildAfaTopology(fabric, {});
    unsigned dev = 0;
    for (auto _ : state) {
        bool done = false;
        fabric.send(topo.ssds[dev % 64], topo.host, 4096,
                    [&] { done = true; });
        while (!done)
            sim.runSteps(1);
        ++dev;
    }
}
BENCHMARK(BM_FabricFourHopTransfer);

void
BM_FabricSendUncontended(benchmark::State &state)
{
    // QD1 data return over the idle four-hop path: the fabric's
    // single-event fast path (one delivery event, no chain lambdas).
    afa::sim::Simulator sim(1);
    afa::pcie::Fabric fabric(sim, "fabric");
    auto topo = buildAfaTopology(fabric, {});
    for (auto _ : state) {
        bool done = false;
        fabric.send(topo.ssds[0], topo.host, 4096, [&] { done = true; });
        while (!done)
            sim.runSteps(1);
    }
}
BENCHMARK(BM_FabricSendUncontended);

void
BM_FabricSendContended(benchmark::State &state)
{
    // A burst of 8 data returns funnelling into the shared uplink:
    // after the first packet the rest take the per-hop fallback, so
    // this bounds the cost of the contended chain model. One
    // iteration = 8 sends + drain.
    afa::sim::Simulator sim(1);
    afa::pcie::Fabric fabric(sim, "fabric");
    auto topo = buildAfaTopology(fabric, {});
    for (auto _ : state) {
        unsigned pending = 8;
        for (unsigned d = 0; d < 8; ++d)
            fabric.send(topo.ssds[d * 8], topo.host, 4096,
                        [&] { --pending; });
        while (pending != 0)
            sim.runSteps(1);
    }
}
BENCHMARK(BM_FabricSendContended);

/**
 * One SSD stack driven directly (no fabric, loopback transport) over a
 * half-preconditioned drive: the device command path that the fast
 * path collapses. Arg(1) runs the single-event fast path, Arg(0)
 * forces the chained reference model, so the Arg(1)/Arg(0) ratio is
 * the in-binary A/B -- both sides are tick-identical by the
 * differential tests, only event count moves. Only reads of the
 * unmapped half can take the fast path.
 */
struct DeviceBench
{
    afa::sim::Simulator sim{7};
    afa::nand::NandArray nand;
    afa::nvme::Controller ctrl;
    bool done = false;
    unsigned pending = 0;

    explicit DeviceBench(bool fast_path)
        : nand(sim, "nand", afa::nand::NandParams{}),
          ctrl(sim, "nvme0",
               [] {
                   afa::nvme::FirmwareConfig fw;
                   fw.smart.enabled = false;
                   return fw;
               }(),
               nand, afa::nvme::FtlParams{})
    {
        ctrl.setFastPath(fast_path);
        ctrl.setTransport([this](std::uint32_t, std::uint64_t,
                                 const afa::nvme::NvmeCompletion &) {
            sim.scheduleAfter(afa::sim::usec(2), [this] {
                done = true;
                if (pending != 0)
                    --pending;
            });
        });
        ctrl.start();
        ctrl.ftl().precondition(0.5);
    }

    void
    drain()
    {
        while (!done)
            sim.runSteps(1);
    }
};

void
BM_DeviceReadCommand(benchmark::State &state)
{
    // QD1 FOB 4 KiB reads of the unmapped half: the uncontended hot
    // path of every random-read figure.
    DeviceBench d(state.range(0) != 0);
    const std::uint64_t mapped = d.ctrl.ftl().logicalBlocks() / 2;
    const std::uint64_t unmapped = d.ctrl.ftl().logicalBlocks() - mapped;
    std::uint64_t id = 1;
    for (auto _ : state) {
        afa::nvme::NvmeCommand cmd;
        cmd.cmdId = id;
        cmd.tag = id;
        cmd.op = afa::nvme::Op::Read;
        cmd.lba = mapped + (id * 7919) % unmapped;
        cmd.bytes = afa::nvme::kLogicalBlockBytes;
        ++id;
        d.done = false;
        d.ctrl.submit(cmd);
        d.drain();
    }
}
BENCHMARK(BM_DeviceReadCommand)->Arg(0)->Arg(1);

void
BM_DeviceWriteCommand(benchmark::State &state)
{
    // QD1 random 4 KiB writes into the mapped half. Every write takes
    // the chained model, so only Arg(0) runs.
    DeviceBench d(state.range(0) != 0);
    std::uint64_t id = 1;
    for (auto _ : state) {
        afa::nvme::NvmeCommand cmd;
        cmd.cmdId = id;
        cmd.tag = id;
        cmd.op = afa::nvme::Op::Write;
        cmd.lba = (id * 31) % 256;
        cmd.bytes = afa::nvme::kLogicalBlockBytes;
        ++id;
        d.done = false;
        d.ctrl.submit(cmd);
        d.drain();
    }
}
BENCHMARK(BM_DeviceWriteCommand)->Arg(0);

void
BM_DeviceCommandContended(benchmark::State &state)
{
    // An 8-deep same-tick burst of seven FOB reads and a write: the
    // write is always chained and leaves the pipeline after the
    // reads, so the seven reads stay single-event and this bounds
    // what a chained command behind fast reads costs. One iteration
    // = 8 commands, run until all 8 complete.
    DeviceBench d(state.range(0) != 0);
    const std::uint64_t mapped = d.ctrl.ftl().logicalBlocks() / 2;
    const std::uint64_t unmapped = d.ctrl.ftl().logicalBlocks() - mapped;
    std::uint64_t id = 1;
    for (auto _ : state) {
        d.pending = 8;
        for (unsigned b = 0; b < 8; ++b) {
            afa::nvme::NvmeCommand cmd;
            cmd.cmdId = id;
            cmd.tag = id;
            if (b == 7) {
                cmd.op = afa::nvme::Op::Write;
                cmd.lba = (id * 31) % 256;
                cmd.bytes = afa::nvme::kLogicalBlockBytes;
            } else {
                cmd.op = afa::nvme::Op::Read;
                cmd.lba = mapped + (id * 7919) % unmapped;
                cmd.bytes = afa::nvme::kLogicalBlockBytes;
            }
            ++id;
            d.ctrl.submit(cmd);
        }
        while (d.pending != 0)
            d.sim.runSteps(1);
    }
}
BENCHMARK(BM_DeviceCommandContended)->Arg(0)->Arg(1);

void
BM_Fig06Throughput(benchmark::State &state)
{
    // End-to-end run of a reduced Fig. 6 config (8 SSDs, 50 ms).
    // items/s is model events per wall second.
    afa::core::ExperimentParams params;
    params.profile = afa::core::TuningProfile::Default;
    params.ssds = 8;
    params.runtime = afa::sim::msec(50);
    params.smartPeriod = afa::sim::msec(25);
    params.irqBalanceInterval = afa::sim::msec(25);
    params.seed = 7;
    std::uint64_t events = 0;
    for (auto _ : state)
        events += afa::core::ExperimentRunner::run(params)
                      .simulatedEvents;
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Fig06Throughput)->Unit(benchmark::kMillisecond);

void
BM_SpanLogRecordTelemetry(benchmark::State &state)
{
    // SpanLog::record() with the telemetry stage feed detached
    // (Arg 0) versus attached (Arg 1): the Arg(1)/Arg(0) ratio is
    // the per-span cost of the windowed histograms + ACT counters.
    // Both Args actively record, so the cross-build overhead gate
    // excludes this benchmark (tools/check_trace_overhead.py
    // --exclude) -- in the compiled-out baseline the sites no-op and
    // the ratio would measure tracing itself, not its disabled cost.
    afa::obs::TraceParams tp;
    tp.mask = afa::obs::kAllCategories;
    afa::obs::SpanLog log(tp);
    afa::obs::TelemetryParams telp;
    telp.window = afa::sim::msec(1);
    afa::obs::Telemetry telemetry(telp);
    if (state.range(0) != 0)
        log.setTelemetry(&telemetry);
    afa::sim::Tick t = 0;
    std::uint64_t io = 0;
    for (auto _ : state) {
        t += 1000;
        log.record(afa::obs::Stage::Complete, ++io, t - 900, t,
                   /*track=*/3);
    }
    benchmark::DoNotOptimize(log.recorded());
}
BENCHMARK(BM_SpanLogRecordTelemetry)->Arg(0)->Arg(1);

void
BM_TelemetryWindowedRun(benchmark::State &state)
{
    // End-to-end cost of an enabled timeline: the reduced Fig. 6 run
    // with --telemetry 5 (internal span log, every window sampled).
    // Compare against BM_Fig06Throughput in the same binary for the
    // enabled-vs-off ratio; the cross-build gate excludes it like
    // BM_SpanLogRecordTelemetry. The telemetry-off cost is gated
    // instead through BM_Fig06Throughput, which runs the always-on
    // self-profiling counters (internal-event plumbing).
    afa::core::ExperimentParams params;
    params.profile = afa::core::TuningProfile::Default;
    params.ssds = 8;
    params.runtime = afa::sim::msec(50);
    params.smartPeriod = afa::sim::msec(25);
    params.irqBalanceInterval = afa::sim::msec(25);
    params.seed = 7;
    params.telemetryWindow = afa::sim::msec(5);
    std::uint64_t events = 0;
    for (auto _ : state)
        events += afa::core::ExperimentRunner::run(params)
                      .simulatedEvents;
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TelemetryWindowedRun)->Unit(benchmark::kMillisecond);

void
BM_ScatterLogRecord(benchmark::State &state)
{
    afa::stats::ScatterLog log(1u << 20);
    afa::sim::Rng rng(42);
    afa::sim::Tick when = 0;
    for (auto _ : state) {
        if (log.size() == (1u << 20))
            log.clear();
        when += 10000;
        log.record(when,
                   static_cast<afa::sim::Tick>(
                       rng.lognormal(90000.0, 0.3)),
                   static_cast<std::uint32_t>(when >> 14 & 31));
    }
    benchmark::DoNotOptimize(log.size());
}
BENCHMARK(BM_ScatterLogRecord);

void
BM_OpenLoopArrival(benchmark::State &state)
{
    // The per-arrival draw sequence of the open-loop engine: one
    // inter-arrival gap (Arg 0 = Poisson, Arg 1 = bursty MMPP), one
    // zipfian device pick and one LBA/op-mix draw. Bounds the
    // generation overhead fig_frontier adds on top of the I/O path.
    afa::workload::ArrivalParams ap;
    ap.burstFactor = state.range(0) ? 4.0 : 1.0;
    ap.ratePerSec = 400000.0;
    afa::workload::ArrivalProcess arrivals(ap);
    afa::workload::ZipfGenerator zipf(64, 0.9);
    afa::sim::Rng rng(42);
    afa::sim::Tick when = 0;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        when += arrivals.nextGap(rng);
        acc ^= zipf.next(rng);
        acc ^= rng.uniformInt(0, 262143);
        acc ^= rng.chance(0.7);
    }
    benchmark::DoNotOptimize(when);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_OpenLoopArrival)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
