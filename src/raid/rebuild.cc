#include "raid/rebuild.hh"

#include <algorithm>
#include <memory>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::raid {

using afa::sim::Tick;
using afa::workload::IoRequest;
using afa::workload::IoResult;

namespace {

/** Tag namespace for rebuild IOs: distinguishes rebuild spans from
 *  client tags (workload::ioTag) in merged traces. */
constexpr std::uint64_t kRebuildTagBase = 0xfee1ULL << 48;

} // namespace

RebuildEngine::RebuildEngine(afa::sim::Simulator &simulator,
                             std::string engine_name,
                             afa::workload::IoEngine &engine,
                             const RebuildParams &params)
    : SimObject(simulator, std::move(engine_name)), inner(engine),
      rebParams(params)
{
    if (rebParams.sources.empty())
        afa::sim::fatal("%s: rebuild needs at least one source",
                        name().c_str());
    if (rebParams.chunkBlocks == 0)
        afa::sim::fatal("%s: chunk size must be >= 1 block",
                        name().c_str());
    for (unsigned src : rebParams.sources)
        if (src == rebParams.target)
            afa::sim::fatal("%s: target %u is also a source",
                            name().c_str(), rebParams.target);
}

void
RebuildEngine::start(Tick start_at)
{
    if (started)
        afa::sim::panic("%s: started twice", name().c_str());
    started = true;
    at(std::max(start_at, now()), [this] {
        rebStats.running = true;
        rebStats.startedAt = now();
        rebuildChunk();
    });
}

void
RebuildEngine::rebuildChunk()
{
    if (nextLba >= rebParams.blocks) {
        rebStats.running = false;
        rebStats.done = true;
        rebStats.finishedAt = now();
        if (onComplete)
            onComplete();
        return;
    }
    const std::uint32_t chunk_blocks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(rebParams.chunkBlocks,
                                rebParams.blocks - nextLba));
    const Tick chunk_begin = now();
    const std::uint64_t tag = kRebuildTagBase | ++chunkSeq;

    IoRequest read;
    read.op = afa::nvme::Op::Read;
    read.lba = nextLba;
    read.bytes = chunk_blocks * afa::nvme::kLogicalBlockBytes;
    read.tag = tag;
    const std::uint64_t chunk_lba = nextLba;
    nextLba += chunk_blocks;

    // Fan out the survivor reads; the chunk's reconstruction is gated
    // on the slowest one, then the result streams to the spare.
    auto remaining =
        std::make_shared<std::size_t>(rebParams.sources.size());
    for (unsigned src : rebParams.sources) {
        read.device = src;
        inner.submit(
            rebParams.cpu, read,
            [this, remaining, chunk_begin, tag, chunk_lba,
             chunk_blocks](const IoResult &) {
                if (--*remaining != 0)
                    return;
                IoRequest write;
                write.op = afa::nvme::Op::Write;
                write.device = rebParams.target;
                write.lba = chunk_lba;
                write.bytes =
                    chunk_blocks * afa::nvme::kLogicalBlockBytes;
                write.tag = tag;
                inner.submit(rebParams.cpu, write,
                             [this, chunk_begin, tag,
                              chunk_blocks](const IoResult &) {
                                 chunkDone(chunk_begin, tag,
                                           chunk_blocks);
                             });
            });
    }
}

void
RebuildEngine::chunkDone(Tick chunk_begin, std::uint64_t tag,
                         std::uint32_t chunk_blocks)
{
    rebStats.blocksDone += chunk_blocks;
    ++rebStats.chunks;
    if (spanLog && spanLog->wants(afa::obs::Category::Fault))
        spanLog->record(afa::obs::Stage::RebuildIo, tag, chunk_begin,
                        now(), afa::obs::ssdTrack(rebParams.target), 0,
                        chunk_blocks * afa::nvme::kLogicalBlockBytes);
    // The pacing delay separates chunks; the final chunk completes
    // the rebuild immediately.
    if (rebParams.interChunkDelay > 0 && nextLba < rebParams.blocks)
        after(rebParams.interChunkDelay, [this] { rebuildChunk(); });
    else
        rebuildChunk();
}

} // namespace afa::raid
