#include "pcie/link.hh"

#include <algorithm>
#include <cassert>

#include "sim/logging.hh"

namespace afa::pcie {

Link::Link(std::string link_name, const LinkParams &params)
    : linkName(std::move(link_name)), linkParams(params),
      cachedBytesPerSec(params.bytesPerSec()), busyHorizon(0),
      totalBytes(0), totalTransfers(0), totalBusy(0), totalQueueDelay(0)
{
    if (params.lanes == 0 || params.lanes > 16)
        afa::sim::fatal("link %s: lane count %u out of [1,16]",
                        linkName.c_str(), params.lanes);
}

Tick
Link::serialization(Bytes bytes) const
{
    return afa::sim::transferTicks(bytes, cachedBytesPerSec);
}

Tick
Link::transfer(Tick now, Bytes bytes)
{
    Tick start = std::max(now, busyHorizon);
    Tick ser = serialization(bytes);
    busyHorizon = start + ser;
    totalBytes += bytes.count();
    ++totalTransfers;
    totalBusy += ser;
    totalQueueDelay += start - now;
    return busyHorizon + linkParams.propagation;
}

Tick
Link::occupy(Tick entry, Bytes bytes)
{
    assert(freeAt(entry) && "occupy() on a busy link");
    return transfer(entry, bytes);
}

void
Link::unoccupy(Tick prev_horizon, Bytes bytes)
{
    assert(prev_horizon <= busyHorizon &&
           "unoccupy() would advance the busy horizon");
    Tick ser = serialization(bytes);
    assert(totalTransfers > 0 && totalBytes >= bytes.count() &&
           totalBusy >= ser && "unoccupy() without matching occupy()");
    busyHorizon = prev_horizon;
    totalBytes -= bytes.count();
    --totalTransfers;
    totalBusy -= ser;
}

} // namespace afa::pcie
