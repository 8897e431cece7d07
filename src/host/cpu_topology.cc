#include "host/cpu_topology.hh"

#include "sim/logging.hh"

namespace afa::host {

CpuTopology::CpuTopology(const CpuTopologyParams &topo_params)
    : params(topo_params)
{
    if (params.sockets == 0 || params.coresPerSocket == 0 ||
        params.threadsPerCore == 0)
        afa::sim::fatal("CPU topology: all dimensions must be >= 1");
    if (params.uplinkSocket >= params.sockets)
        afa::sim::fatal("CPU topology: uplink socket %u out of range",
                        params.uplinkSocket);
    numPhysical = params.sockets * params.coresPerSocket;
    numLogical = numPhysical * params.threadsPerCore;
    siblings.reserve(static_cast<std::size_t>(numLogical) *
                     (params.threadsPerCore - 1));
    for (unsigned cpu = 0; cpu < numLogical; ++cpu) {
        const unsigned phys = physicalCoreOf(cpu);
        for (unsigned t = 0; t < params.threadsPerCore; ++t) {
            const unsigned sib = logicalCpu(phys, t);
            if (sib != cpu)
                siblings.push_back(sib);
        }
    }
}

void
CpuTopology::checkCpu(unsigned cpu) const
{
    if (cpu >= numLogical)
        afa::sim::panic("logical cpu %u out of range (%u)", cpu,
                        numLogical);
}

unsigned
CpuTopology::physicalCoreOf(unsigned cpu) const
{
    checkCpu(cpu);
    // Linux-style numbering: thread t of physical core p is logical
    // cpu (t * physicalCores + p).
    return cpu % numPhysical;
}

unsigned
CpuTopology::threadOf(unsigned cpu) const
{
    checkCpu(cpu);
    return cpu / numPhysical;
}

unsigned
CpuTopology::socketOf(unsigned cpu) const
{
    return physicalCoreOf(cpu) / params.coresPerSocket;
}

std::span<const unsigned>
CpuTopology::siblingsOf(unsigned cpu) const
{
    checkCpu(cpu);
    const std::size_t per_cpu = params.threadsPerCore - 1;
    return {siblings.data() + cpu * per_cpu, per_cpu};
}

unsigned
CpuTopology::logicalCpu(unsigned physical_core, unsigned thread) const
{
    if (physical_core >= numPhysical || thread >= params.threadsPerCore)
        afa::sim::panic("bad (core %u, thread %u)", physical_core,
                        thread);
    return thread * numPhysical + physical_core;
}

std::vector<unsigned>
CpuTopology::cpusOnSocket(unsigned socket) const
{
    if (socket >= params.sockets)
        afa::sim::panic("socket %u out of range", socket);
    std::vector<unsigned> out;
    for (unsigned cpu = 0; cpu < numLogical; ++cpu)
        if (socketOf(cpu) == socket)
            out.push_back(cpu);
    return out;
}

std::string
CpuTopology::describe() const
{
    return afa::sim::strfmt("%u x %uc/%ut", params.sockets,
                            params.coresPerSocket,
                            params.coresPerSocket *
                                params.threadsPerCore);
}

} // namespace afa::host
