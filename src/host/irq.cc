#include "host/irq.hh"

#include <algorithm>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::host {

IrqSubsystem::IrqSubsystem(afa::sim::Simulator &simulator,
                           std::string irq_name, Scheduler &scheduler,
                           unsigned devices)
    : SimObject(simulator, std::move(irq_name)), sched(scheduler),
      numDevices(devices),
      numQueues(scheduler.topology().logicalCpus())
{
    if (devices == 0)
        afa::sim::fatal("%s: need at least one device", name().c_str());
    std::size_t n =
        static_cast<std::size_t>(numDevices) * numQueues;
    affinity.resize(n);
    counts.assign(n, 0);
    countsAtLastScan.assign(n, 0);
    // Driver-default spread: queue q's vector targets CPU q.
    for (unsigned d = 0; d < numDevices; ++d)
        for (unsigned q = 0; q < numQueues; ++q)
            affinity[index(d, q)] = q;
}

std::size_t
IrqSubsystem::index(unsigned device, unsigned queue) const
{
    if (device >= numDevices || queue >= numQueues)
        afa::sim::panic("%s: bad vector (%u, %u)", name().c_str(),
                        device, queue);
    return static_cast<std::size_t>(device) * numQueues + queue;
}

unsigned
IrqSubsystem::effectiveCpu(unsigned device, unsigned queue) const
{
    return affinity[index(device, queue)];
}

std::uint64_t
IrqSubsystem::vectorCount(unsigned device, unsigned queue) const
{
    return counts[index(device, queue)];
}

void
IrqSubsystem::start()
{
    const auto &cfg = sched.config().irq;
    if (!cfg.irqBalanceEnabled)
        return;
    // A zero interval would rescan at the same tick forever.
    if (cfg.irqBalanceInterval == 0)
        afa::sim::fatal("%s: irqbalance interval must be positive",
                        name().c_str());
    // irqbalance has been running since boot: do an initial placement
    // pass promptly, then rescan periodically.
    after(afa::sim::msec(100), [this] { balancerScan(); });
}

void
IrqSubsystem::balancerScan()
{
    const auto &cfg = sched.config().irq;
    if (!cfg.irqBalanceEnabled)
        return;
    ++irqStats.rebalances;
    const CpuTopology &topo = sched.topology();
    // irqbalance keeps a vector inside the NUMA node of its device;
    // the AFA hangs off the uplink socket. It spreads *busy* vectors
    // evenly over that socket's CPUs -- with no idea which CPU the
    // submitting task runs on.
    auto node_cpus = topo.cpusOnSocket(topo.uplinkSocket());
    std::size_t next = 0;
    // Deterministic shuffle of the starting offset per scan.
    next = static_cast<std::size_t>(
        rng().uniformInt(0, node_cpus.size() - 1));
    for (unsigned d = 0; d < numDevices; ++d) {
        for (unsigned q = 0; q < numQueues; ++q) {
            std::size_t i = index(d, q);
            bool busy = counts[i] > countsAtLastScan[i];
            countsAtLastScan[i] = counts[i];
            if (!busy)
                continue;
            unsigned target = node_cpus[next % node_cpus.size()];
            ++next;
            if (affinity[i] != target) {
                affinity[i] = target;
                ++irqStats.vectorMoves;
            }
        }
    }
    after(cfg.irqBalanceInterval, [this] { balancerScan(); });
}

void
IrqSubsystem::raise(unsigned device, unsigned queue, HandlerFn handler,
                    std::uint64_t io)
{
    std::size_t i = index(device, queue);
    ++counts[i];
    ++irqStats.delivered;
    unsigned cpu = affinity[i];
    const auto &cfg = sched.config().irq;
    const CpuTopology &topo = sched.topology();

    Tick cost = cfg.hardirqCost + cfg.softirqCost;
    if (cpu != queue)
        ++irqStats.remoteDeliveries;
    // Interrupt arriving on the wrong socket pays the QPI crossing.
    if (topo.socketOf(cpu) != topo.uplinkSocket()) {
        cost += cfg.crossSocketPenalty;
        ++irqStats.crossSocket;
    }

    const std::uint32_t idx = raised.acquire();
    Raised &r = raised[idx];
    r.handler = std::move(handler);
    r.cpu = cpu;
    if (spanLog && spanLog->wants(afa::obs::Category::Irq)) {
        // Span covers raise -> handler execution: c-state exit plus
        // the hardirq/softirq work, on the handler CPU's track. The
        // Remote flag marks the paper's misplacement (handler CPU is
        // not the submission queue's CPU).
        r.traced = true;
        r.io = io;
        r.raisedAt = now();
        r.device = device;
        r.flags =
            cpu != queue ? afa::obs::kSpanFlagRemote : std::uint8_t(0);
    }
    sched.interrupt(cpu, cost, [this, idx] { handle(idx); });
}

void
IrqSubsystem::handle(std::uint32_t idx)
{
    const Raised r = raised.take(idx);
    if (r.traced)
        spanLog->record(afa::obs::Stage::IrqDeliver, r.io, r.raisedAt,
                        now(), afa::obs::cpuTrack(r.cpu), r.flags,
                        r.device);
    r.handler(r.cpu);
}

} // namespace afa::host
