#include "host/kernel_config.hh"

#include <sstream>

#include "sim/logging.hh"

namespace afa::host {

std::string
formatCpuList(const CpuSet &cpus)
{
    std::ostringstream os;
    auto it = cpus.begin();
    bool first = true;
    while (it != cpus.end()) {
        unsigned lo = *it;
        unsigned hi = lo;
        auto next = std::next(it);
        while (next != cpus.end() && *next == hi + 1) {
            hi = *next;
            ++next;
        }
        if (!first)
            os << ",";
        first = false;
        if (lo == hi)
            os << lo;
        else
            os << lo << "-" << hi;
        it = next;
    }
    return os.str();
}

std::string
KernelConfig::bootCommandLine() const
{
    std::ostringstream os;
    bool first = true;
    auto emit = [&](const std::string &opt) {
        if (!first)
            os << " ";
        first = false;
        os << opt;
    };
    if (!isolcpus.empty())
        emit("isolcpus=" + formatCpuList(isolcpus));
    if (!nohzFull.empty())
        emit("nohz_full=" + formatCpuList(nohzFull));
    if (!rcuNocbs.empty())
        emit("rcu_nocbs=" + formatCpuList(rcuNocbs));
    if (cstate.maxCstate != 6)
        emit(afa::sim::strfmt("processor.max_cstate=%u",
                              cstate.maxCstate));
    if (cstate.idlePoll)
        emit("idle=poll");
    return os.str();
}

} // namespace afa::host
