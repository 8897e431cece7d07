#include "stats/scatter_log.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace afa::stats {

void
ScatterLog::record(Tick when, Tick latency, std::uint32_t device)
{
    if (buf.size() >= maxSamples) {
        ++numDropped;
        ++nextIndex;
        return;
    }
    // Grow geometrically up to the bound rather than committing the
    // full capacity up front: the default capacity is 8M samples
    // (~256 MiB), and with the parallel experiment engine several
    // scatter-enabled experiments run concurrently, so a run that logs
    // only a few samples must not pay for its ceiling. Capping the
    // final doubling at maxSamples also avoids overshooting the bound.
    if (buf.size() == buf.capacity())
        buf.reserve(std::min(maxSamples,
                             std::max<std::size_t>(4096,
                                                   buf.capacity() * 2)));
    buf.push_back(Sample{nextIndex++, when, latency, device});
}

std::vector<SpikeCluster>
ScatterLog::clusters(Tick threshold, Tick gap) const
{
    std::vector<SpikeCluster> out;
    for (const auto &s : buf) {
        if (s.latency <= threshold)
            continue;
        if (!out.empty() && s.when - out.back().end <= gap) {
            SpikeCluster &c = out.back();
            c.end = s.when;
            c.samples += 1;
            c.peakLatency = std::max(c.peakLatency, s.latency);
        } else {
            out.push_back(
                SpikeCluster{s.when, s.when, 1, s.latency, s.index});
        }
    }
    return out;
}

Tick
ScatterLog::clusterPeriod(Tick threshold, Tick gap) const
{
    auto cs = clusters(threshold, gap);
    if (cs.size() < 2)
        return 0;
    std::vector<Tick> intervals;
    intervals.reserve(cs.size() - 1);
    for (std::size_t i = 1; i < cs.size(); ++i)
        intervals.push_back(cs[i].start - cs[i - 1].start);
    std::sort(intervals.begin(), intervals.end());
    return intervals[intervals.size() / 2];
}

std::string
ScatterLog::toText(std::size_t stride) const
{
    if (stride == 0)
        afa::sim::fatal("ScatterLog::toText: stride must be > 0");
    std::string out;
    // ~32 bytes covers a typical "index latency nvmeN" line; the
    // string grows past it only for extreme indices/latencies.
    out.reserve(32 * (buf.size() / stride + 1));
    char line[96];
    for (std::size_t i = 0; i < buf.size(); i += stride) {
        const Sample &s = buf[i];
        // %g matches the std::ostream default double format the
        // scatter series was originally emitted with (fig10 output
        // must stay byte-identical).
        int len = std::snprintf(line, sizeof(line),
                                "%llu %g nvme%u\n",
                                static_cast<unsigned long long>(s.index),
                                afa::sim::toUsec(s.latency), s.device);
        if (len > 0)
            out.append(line, static_cast<std::size_t>(
                                 std::min<int>(len, sizeof(line) - 1)));
    }
    return out;
}

void
ScatterLog::clear()
{
    buf.clear();
    nextIndex = 0;
    numDropped = 0;
}

} // namespace afa::stats
