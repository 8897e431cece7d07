#include "core/system_report.hh"

#include <sstream>

#include "stats/table.hh"

namespace afa::core {

using afa::stats::Table;

std::string
systemReport(AfaSystem &system)
{
    std::ostringstream os;
    afa::sim::Tick now = system.scheduler().now();
    double elapsed_s = afa::sim::toSec(now);
    if (now == 0)
        return "(no simulated time elapsed)\n";

    // --- CPUs: busy/irq utilisation grouped by role ----------------
    const auto &topo = system.scheduler().topology();
    const auto &kernel = system.scheduler().config();
    Table cpus({"cpu group", "cpus", "busy%", "irq%", "switches",
                "pulls", "cstate wakes"});
    struct Group
    {
        const char *name;
        bool isolated;
    };
    for (const Group &group :
         {Group{"housekeeping", false}, Group{"isolated/fio", true}}) {
        double busy = 0, irq_time = 0;
        std::uint64_t switches = 0, pulls = 0, wakes = 0;
        unsigned count = 0;
        for (unsigned cpu = 0; cpu < topo.logicalCpus(); ++cpu) {
            bool isolated = kernel.isolcpus.count(cpu) != 0;
            if (isolated != group.isolated)
                continue;
            const auto &s = system.scheduler().cpuStats(cpu);
            busy += afa::sim::toSec(s.busyTime);
            irq_time += afa::sim::toSec(s.irqTime);
            switches += s.switches;
            pulls += s.pulls;
            wakes += s.cstateWakes;
            ++count;
        }
        if (count == 0)
            continue;
        double denom = elapsed_s * count;
        cpus.addRow({group.name, Table::num(std::uint64_t(count)),
                     Table::num(100.0 * busy / denom, 1),
                     Table::num(100.0 * irq_time / denom, 2),
                     Table::num(switches), Table::num(pulls),
                     Table::num(wakes)});
    }
    os << "CPU utilisation by group:\n" << cpus.toString() << "\n";

    // --- IRQ placement ----------------------------------------------
    const auto &irq = system.irq().stats();
    Table irqs({"irq metric", "value"});
    irqs.addRow({"interrupts delivered", Table::num(irq.delivered)});
    double remote_pct = irq.delivered
        ? 100.0 * static_cast<double>(irq.remoteDeliveries) /
            static_cast<double>(irq.delivered)
        : 0.0;
    irqs.addRow({"remote (handler != queue cpu) %",
                 Table::num(remote_pct, 1)});
    irqs.addRow({"cross-socket deliveries",
                 Table::num(irq.crossSocket)});
    irqs.addRow({"irqbalance scans", Table::num(irq.rebalances)});
    irqs.addRow({"vector affinity moves",
                 Table::num(irq.vectorMoves)});
    os << "IRQ subsystem:\n" << irqs.toString() << "\n";

    // --- Fabric -----------------------------------------------------
    const auto &fabric_stats = system.fabric().stats();
    Table fab({"fabric metric", "value"});
    fab.addRow({"packets", Table::num(fabric_stats.packets)});
    fab.addRow({"gigabytes",
                Table::num(static_cast<double>(fabric_stats.bytes) /
                               1e9,
                           2)});
    fab.addRow({"mean queue delay per packet (ns)",
                Table::num(fabric_stats.packets
                               ? static_cast<double>(
                                     system.fabric().queueDelay()) /
                                   static_cast<double>(
                                       fabric_stats.packets)
                               : 0.0,
                           0)});
    os << "PCIe fabric:\n" << fab.toString() << "\n";

    // --- SSDs -------------------------------------------------------
    std::uint64_t reads = 0, writes = 0, hiccups = 0, collections = 0;
    afa::sim::Tick smart_delay = 0;
    for (unsigned d = 0; d < system.ssds(); ++d) {
        const auto &s = system.ssd(d).stats();
        reads += s.readsCompleted;
        writes += s.writesCompleted;
        hiccups += s.hiccups;
        smart_delay += s.smartStallDelay;
        collections += system.ssd(d).smart().collections();
    }
    Table ssds({"ssd metric", "value"});
    ssds.addRow({"reads completed", Table::num(reads)});
    ssds.addRow({"writes completed", Table::num(writes)});
    ssds.addRow({"SMART collections", Table::num(collections)});
    ssds.addRow({"total SMART stall delay (ms)",
                 Table::num(afa::sim::toMsec(smart_delay), 2)});
    ssds.addRow({"firmware hiccups", Table::num(hiccups)});
    os << "SSDs (aggregate over " << system.ssds() << "):\n"
       << ssds.toString();
    return os.str();
}

} // namespace afa::core
