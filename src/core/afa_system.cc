#include "core/afa_system.hh"

#include <cassert>

#include "obs/metrics.hh"
#include "obs/span_log.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"

namespace afa::core {

using afa::nvme::NvmeCommand;
using afa::nvme::NvmeCompletion;
using afa::sim::Simulator;

AfaSystem::AfaSystem(Simulator &simulator, const AfaSystemParams &params)
    : sim(simulator), sysParams(params)
{
    if (params.ssds == 0)
        afa::sim::fatal("AfaSystem: need at least one SSD");

    // Fabric first (Fig. 2/4).
    pcieFabric = std::make_unique<afa::pcie::Fabric>(sim, "fabric");
    afa::pcie::AfaTopologyParams ft = params.fabric;
    ft.ssds = params.ssds;
    fabricTopo = buildAfaTopology(*pcieFabric, ft);

    // Host side. The default IRQ spread already maps queue q's vector
    // to CPU q, so pinning only has to keep irqbalance off.
    afa::host::KernelConfig kernel = params.kernel;
    if (params.pinIrqAffinity)
        kernel.irq.irqBalanceEnabled = false;
    sched = std::make_unique<afa::host::Scheduler>(
        sim, "sched", afa::host::CpuTopology(params.topology), kernel);
    irqSub = std::make_unique<afa::host::IrqSubsystem>(
        sim, "irq", *sched, params.ssds);
    bg = std::make_unique<afa::host::BackgroundLoad>(
        sim, "bg", *sched, params.background);
    driver = std::make_unique<Driver>(*this);

    // SSDs.
    for (unsigned d = 0; d < params.ssds; ++d) {
        nands.push_back(std::make_unique<afa::nand::NandArray>(
            sim, afa::sim::strfmt("nvme%u.nand", d), params.nand));
        ctrls.push_back(std::make_unique<afa::nvme::Controller>(
            sim, afa::sim::strfmt("nvme%u", d), params.firmware,
            *nands.back(), params.ftl));
        afa::nvme::Controller &ctrl = *ctrls.back();
        ctrl.setFastPath(params.deviceFastPath);
        afa::pcie::NodeId dev_node = fabricTopo.ssds[d];
        afa::pcie::NodeId host_node = fabricTopo.host;
        ctrl.setTransport([this, dev_node, host_node, d](
                              std::uint32_t bytes, std::uint64_t io,
                              const NvmeCompletion &completion) {
            // Device -> fabric: the completion enters the fabric at
            // the device-side tick.
            pcieFabric->sendSpanned(
                dev_node, host_node, bytes, io, afa::obs::ssdTrack(d),
                afa::obs::Stage::FabricComplete,
                [driver = driver.get(), d, completion] {
                    driver->onCompletion(d, completion);
                });
        });
    }

    if (params.faults) {
        std::vector<afa::nvme::Controller *> ctrl_ptrs;
        for (auto &ctrl : ctrls)
            ctrl_ptrs.push_back(ctrl.get());
        faults = std::make_unique<afa::fault::FaultEngine>(
            sim, params.faults, std::move(ctrl_ptrs),
            pcieFabric.get(), fabricTopo.ssds);
    }
}

void
AfaSystem::start()
{
    if (startedFlag)
        return;
    startedFlag = true;
    sched->start();
    irqSub->start();
    bg->start();
    for (auto &ctrl : ctrls)
        ctrl->start();
    if (faults)
        faults->start();
}

afa::workload::IoEngine &
AfaSystem::ioEngine()
{
    return *driver;
}

afa::nvme::Controller &
AfaSystem::ssd(unsigned index)
{
    if (index >= ctrls.size())
        afa::sim::panic("AfaSystem: ssd index %u out of range", index);
    return *ctrls[index];
}

std::size_t
AfaSystem::outstandingCommands() const
{
    return driver->outstanding();
}

const DriverStats &
AfaSystem::driverStats() const
{
    return driver->stats();
}

void
AfaSystem::addMetricsSource(
    std::function<void(afa::obs::MetricsRegistry &)> source)
{
    extraMetricsSources.push_back(std::move(source));
}

void
AfaSystem::setSpanLog(afa::obs::SpanLog *log)
{
    spanLogPtr = log;
    pcieFabric->setSpanLog(log);
    sched->setSpanLog(log);
    irqSub->setSpanLog(log);
    for (unsigned d = 0; d < ctrls.size(); ++d)
        ctrls[d]->setSpanLog(log, afa::obs::ssdTrack(d));
}

void
AfaSystem::attachTelemetry(afa::obs::Telemetry &telemetry)
{
    if (!telemetry.enabled())
        return;
    telemetry.addCounter("fabric.packets", [this] {
        return pcieFabric->stats().packets;
    });
    telemetry.addCounter("fabric.bytes", [this] {
        return pcieFabric->stats().bytes;
    });
    telemetry.addCounter("fabric.fast_path_packets", [this] {
        return pcieFabric->stats().fastPathPackets;
    });
    telemetry.addCounter("fabric.fallback_packets", [this] {
        return pcieFabric->stats().fallbackPackets;
    });
    telemetry.addCounter("fabric.link_replays", [this] {
        return pcieFabric->stats().linkReplays;
    });
    telemetry.addCounter("irq.delivered", [this] {
        return irqSub->stats().delivered;
    });
    telemetry.addCounter("sched.switches", [this] {
        std::uint64_t switches = 0;
        const unsigned cpus = sched->topology().logicalCpus();
        for (unsigned c = 0; c < cpus; ++c)
            switches += sched->cpuStats(c).switches;
        return switches;
    });
    telemetry.addGauge("driver.in_flight", [this] {
        return static_cast<double>(driver->outstanding());
    });
    if (sysParams.faults) {
        // Fault-run series only appear in faulted timelines, the
        // same gate publishMetrics() applies to --metrics-json.
        telemetry.addCounter("driver.timeouts", [this] {
            return driver->stats().timeouts;
        });
        telemetry.addCounter("driver.retries", [this] {
            return driver->stats().retries;
        });
        telemetry.addCounter("driver.aborts", [this] {
            return driver->stats().aborts;
        });
        telemetry.addCounter("fault.events_applied", [this] {
            return faults->stats().applied;
        });
        telemetry.addCounter("fault.events_reverted", [this] {
            return faults->stats().reverted;
        });
        telemetry.addGauge("fault.active", [this] {
            return static_cast<double>(faults->stats().active);
        });
    }
}

void
AfaSystem::publishMetrics(afa::obs::MetricsRegistry &registry) const
{
    const afa::pcie::FabricStats &fs = pcieFabric->stats();
    registry.addCounter("fabric.packets", fs.packets);
    registry.addCounter("fabric.bytes", fs.bytes);
    registry.addCounter("fabric.fast_path_packets", fs.fastPathPackets);
    registry.addCounter("fabric.fallback_packets", fs.fallbackPackets);
    registry.addCounter("fabric.queue_delay_ticks",
                        pcieFabric->queueDelay());
    registry.addCounter("fabric.link_replays", fs.linkReplays);

    const afa::host::IrqStats &is = irqSub->stats();
    registry.addCounter("irq.delivered", is.delivered);
    registry.addCounter("irq.remote_deliveries", is.remoteDeliveries);
    registry.addCounter("irq.cross_socket", is.crossSocket);
    registry.addCounter("irq.rebalances", is.rebalances);
    registry.addCounter("irq.vector_moves", is.vectorMoves);

    afa::host::CpuStats cpu;
    unsigned cpus = sched->topology().logicalCpus();
    for (unsigned c = 0; c < cpus; ++c) {
        const afa::host::CpuStats &s = sched->cpuStats(c);
        cpu.busyTime += s.busyTime;
        cpu.irqTime += s.irqTime;
        cpu.switches += s.switches;
        cpu.interrupts += s.interrupts;
        cpu.pulls += s.pulls;
        cpu.cstateWakes += s.cstateWakes;
        cpu.cstateExitDelay += s.cstateExitDelay;
    }
    registry.addCounter("sched.busy_ticks", cpu.busyTime);
    registry.addCounter("sched.irq_ticks", cpu.irqTime);
    registry.addCounter("sched.switches", cpu.switches);
    registry.addCounter("sched.interrupts", cpu.interrupts);
    registry.addCounter("sched.pulls", cpu.pulls);
    registry.addCounter("sched.cstate_wakes", cpu.cstateWakes);
    registry.addCounter("sched.cstate_exit_ticks", cpu.cstateExitDelay);

    afa::nvme::ControllerStats ssd;
    afa::nvme::FtlStats ftl;
    afa::nand::NandStats nand;
    std::uint64_t smart_collections = 0;
    std::uint64_t smart_saves = 0;
    for (std::size_t d = 0; d < ctrls.size(); ++d) {
        const afa::nvme::ControllerStats &cs = ctrls[d]->stats();
        ssd.readsCompleted += cs.readsCompleted;
        ssd.writesCompleted += cs.writesCompleted;
        ssd.bytesRead += cs.bytesRead;
        ssd.bytesWritten += cs.bytesWritten;
        ssd.hiccups += cs.hiccups;
        ssd.smartStallDelay += cs.smartStallDelay;
        ssd.droppedCommands += cs.droppedCommands;
        ssd.faultStallDelay += cs.faultStallDelay;
        ssd.fastPathCommands += cs.fastPathCommands;
        ssd.fallbackCommands += cs.fallbackCommands;
        const afa::nvme::FtlStats &fls = ctrls[d]->ftl().stats();
        ftl.hostReadsMapped += fls.hostReadsMapped;
        ftl.hostWrites += fls.hostWrites;
        ftl.gcRuns += fls.gcRuns;
        const afa::nand::NandStats &ns = nands[d]->stats();
        nand.reads += ns.reads;
        nand.programs += ns.programs;
        nand.erases += ns.erases;
        nand.dieBusyTime += ns.dieBusyTime;
        nand.channelBusyTime += ns.channelBusyTime;
        const afa::nvme::SmartEngine &se = ctrls[d]->smart();
        smart_collections += se.collections();
        smart_saves += se.saves();
    }
    registry.addCounter("nvme.reads_completed", ssd.readsCompleted);
    registry.addCounter("nvme.writes_completed", ssd.writesCompleted);
    registry.addCounter("nvme.bytes_read", ssd.bytesRead);
    registry.addCounter("nvme.bytes_written", ssd.bytesWritten);
    registry.addCounter("nvme.hiccups", ssd.hiccups);
    registry.addCounter("nvme.smart_stall_ticks", ssd.smartStallDelay);
    registry.addCounter("nvme.fast_path_commands", ssd.fastPathCommands);
    registry.addCounter("nvme.fallback_commands", ssd.fallbackCommands);
    registry.addCounter("smart.collections", smart_collections);
    registry.addCounter("smart.saves", smart_saves);
    registry.addCounter("ftl.host_reads_mapped", ftl.hostReadsMapped);
    registry.addCounter("ftl.host_writes", ftl.hostWrites);
    registry.addCounter("ftl.gc_runs", ftl.gcRuns);
    registry.addCounter("nand.reads", nand.reads);
    registry.addCounter("nand.programs", nand.programs);
    registry.addCounter("nand.erases", nand.erases);
    registry.addCounter("nand.die_busy_ticks", nand.dieBusyTime);
    registry.addCounter("nand.channel_busy_ticks",
                        nand.channelBusyTime);

    if (sysParams.faults) {
        // Fault-run counters only appear in faulted artifacts, so
        // healthy --metrics-json output is byte-identical to before.
        registry.addCounter("nvme.dropped_commands",
                            ssd.droppedCommands);
        registry.addCounter("nvme.fault_stall_ticks",
                            ssd.faultStallDelay);
        const DriverStats &ds = driver->stats();
        registry.addCounter("driver.timeouts", ds.timeouts);
        registry.addCounter("driver.retries", ds.retries);
        registry.addCounter("driver.aborts", ds.aborts);
        registry.addCounter("driver.stale_completions",
                            ds.staleCompletions);
        const afa::fault::FaultEngineStats &es = faults->stats();
        registry.addCounter("fault.events_applied", es.applied);
        registry.addCounter("fault.events_reverted", es.reverted);
    }

    for (const auto &source : extraMetricsSources)
        source(registry);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

void
AfaSystem::Driver::submit(unsigned cpu,
                          const afa::workload::IoRequest &request,
                          CompleteFn on_device_complete)
{
    if (request.device >= sys.ctrls.size())
        afa::sim::panic("driver: device %u out of range",
                        request.device);
    const std::uint32_t slot = inFlight.acquire();
    Pending &pending = inFlight[slot];
    pending.fn = std::move(on_device_complete);
    pending.req = request;
    pending.cpu = cpu;
    ++numOutstanding;
    startAttempt(slot);
}

void
AfaSystem::Driver::startAttempt(std::uint32_t slot)
{
    Pending &pending = inFlight[slot];
    const afa::workload::IoRequest &request = pending.req;
    const unsigned cpu = pending.cpu;
    pending.cmdId = (nextAttempt++ << 32) | slot;

    // Timeouts are armed only when a fault plan is loaded: on a
    // healthy run the driver schedules no extra events at all.
    if (sys.sysParams.faults)
        pending.timeout = sys.sim.scheduleAfter(
            sys.sysParams.faults->nvmeTimeout,
            [this, slot] { onTimeout(slot); });

    NvmeCommand cmd;
    cmd.op = request.op;
    cmd.lba = request.lba;
    cmd.bytes = request.bytes;
    cmd.queueId = static_cast<std::uint16_t>(cpu);
    cmd.cmdId = pending.cmdId;
    cmd.tag = request.tag;

    const std::uint32_t sqe = sqes.acquire();
    sqes[sqe] = Sqe{sys.ctrls[request.device].get(), cmd};
    sys.pcieFabric->sendSpanned(sys.fabricTopo.host,
                                sys.fabricTopo.ssds[request.device],
                                kSqeBytes, cmd.tag,
                                afa::obs::cpuTrack(cpu),
                                afa::obs::Stage::FabricSubmit,
                                [this, sqe] {
                                    const Sqe s = sqes.take(sqe);
                                    s.ctrl->submit(s.cmd);
                                });
}

void
AfaSystem::Driver::onTimeout(std::uint32_t slot)
{
    Pending &pending = inFlight[slot];
    assert(pending.cmdId != 0 && "timeout of an answered command");
    ++drvStats.timeouts;
    // The device's answer to this attempt, if it ever comes, is
    // stale from now on.
    pending.cmdId = 0;
    const afa::fault::FaultPlan &plan = *sys.sysParams.faults;
    if (pending.attempts >= plan.maxRetries) {
        // Retry budget exhausted: fail the IO back to the submitter
        // on its own CPU (no interrupt fires for an abort).
        ++drvStats.aborts;
        --numOutstanding;
        Pending done = inFlight.take(slot);
        done.fn(afa::workload::IoResult{done.cpu,
                                        afa::nvme::Status::TimedOut});
        return;
    }
    ++drvStats.retries;
    afa::sim::Tick backoff = plan.retryBackoff << pending.attempts;
    if (sys.spanLogPtr && pending.req.tag &&
        sys.spanLogPtr->wants(afa::obs::Category::Fault))
        sys.spanLogPtr->record(afa::obs::Stage::RetryWait,
                               pending.req.tag, sys.sim.now(),
                               sys.sim.now() + backoff,
                               afa::obs::cpuTrack(pending.cpu));
    // Resubmit under a fresh command id so a late completion of the
    // timed-out attempt can be told apart (it counts as stale in
    // onCompletion()).
    sys.sim.scheduleAfter(backoff, [this, slot] {
        ++inFlight[slot].attempts;
        startAttempt(slot);
    });
}

std::uint64_t
AfaSystem::Driver::deviceBlocks(unsigned device) const
{
    if (device >= sys.ctrls.size())
        afa::sim::panic("driver: device %u out of range", device);
    return sys.ctrls[device]->ftl().logicalBlocks();
}

void
AfaSystem::Driver::onCompletion(unsigned device,
                                const NvmeCompletion &completion)
{
    const auto slot = static_cast<std::uint32_t>(completion.cmdId);
    if (!inFlight.live(slot) ||
        inFlight[slot].cmdId != completion.cmdId) {
        if (sys.sysParams.faults) {
            // The driver already timed this attempt out (and retried
            // or aborted the IO); the device's late answer is dropped
            // like a CQE for a recycled tag.
            ++drvStats.staleCompletions;
            return;
        }
        afa::sim::panic("driver: completion for unknown command %llu",
                        (unsigned long long)completion.cmdId);
    }
    Pending &pending = inFlight[slot];
    pending.cmdId = 0;
    --numOutstanding;
    if (sys.sysParams.faults)
        sys.sim.cancel(pending.timeout);
    if (sys.polledMode) {
        // Polled queues: the CQE sits in host memory; the submitting
        // thread's poll loop will find it. No interrupt is raised.
        Pending done = inFlight.take(slot);
        done.fn(afa::workload::IoResult{completion.queueId,
                                        completion.status});
        return;
    }
    // Deliver through the MSI-X vector of (device, submit queue);
    // its affinity decides which CPU pays the hardirq/softirq cost.
    pending.status = completion.status;
    sys.irqSub->raise(device, completion.queueId,
                      [this, slot](unsigned handler_cpu) {
                          Pending done = inFlight.take(slot);
                          done.fn(afa::workload::IoResult{
                              handler_cpu, done.status});
                      },
                      pending.req.tag);
}

} // namespace afa::core
