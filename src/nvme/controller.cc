#include "nvme/controller.hh"

#include <algorithm>
#include <functional>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::nvme {

Controller::Controller(afa::sim::Simulator &simulator,
                       std::string controller_name,
                       const FirmwareConfig &firmware_config,
                       afa::nand::NandArray &nand_array,
                       const FtlParams &ftl_params)
    : SimObject(simulator, std::move(controller_name)),
      fwConfig(firmware_config),
      ftlLayer(simulator, name() + ".ftl", nand_array, ftl_params),
      smartEngine(simulator, name() + ".smart", firmware_config.smart),
      procBusy(0), xferBusy(0),
      writePipeBusy(0), lastWriteEndLba(~std::uint64_t(0))
{
}

void
Controller::setTransport(TransportFn transport_fn)
{
    transport = std::move(transport_fn);
}

void
Controller::setSpanLog(afa::obs::SpanLog *log, std::uint16_t track)
{
    spanLog = log;
    spanTrack = track;
    ftlLayer.setSpanLog(log, track);
}

void
Controller::start()
{
    smartEngine.start();
}

void
Controller::setLimpFactor(double factor)
{
    if (!(factor >= 1.0 && factor <= kMaxLimpFactor))
        afa::sim::panic("%s: limp factor %g not in [1, %g]",
                        name().c_str(), factor, kMaxLimpFactor);
    // A fast read took the old factor at submit; the reference model
    // takes the factor in force at its pipe exit.
    if (factor != limp && fastExitsBefore > now())
        afa::sim::panic("%s: limp factor changed at tick %llu before a "
                        "fast read's pipe exit; plan the onset with "
                        "planLimpOnset()",
                        name().c_str(), (unsigned long long)now());
    limp = factor;
}

void
Controller::planLimpOnset(Tick onset)
{
    limpOnsets.insert(std::upper_bound(limpOnsets.begin(),
                                       limpOnsets.end(), onset,
                                       std::greater<Tick>()),
                      onset);
}

void
Controller::stallUntil(Tick until)
{
    faultStallUntilTick = std::max(faultStallUntilTick, until);
}

void
Controller::setOffline(bool offline)
{
    isOffline = offline;
}

void
Controller::setFastPath(bool enabled)
{
    fastPathEnabled = enabled;
}

void
Controller::checkWired() const
{
    if (!transport)
        afa::sim::fatal("%s: transport not wired", name().c_str());
}

Tick
Controller::throughPipeline(std::uint64_t io)
{
    Tick ready = std::max(now(), procBusy);
    Tick stalled = std::max(ready, smartEngine.stalledUntil());
    ctrlStats.smartStallDelay += stalled - ready;
    Tick faulted = std::max(stalled, faultStallUntilTick);
    ctrlStats.faultStallDelay += faulted - stalled;
    if (spanLog) {
        if (ready > now() && spanLog->wants(afa::obs::Category::Nvme))
            spanLog->record(afa::obs::Stage::ControllerQueue, io,
                            now(), ready, spanTrack);
        if (stalled > ready &&
            spanLog->wants(afa::obs::Category::Smart))
            spanLog->record(afa::obs::Stage::SmartStall, io, ready,
                            stalled, spanTrack);
        if (faulted > stalled &&
            spanLog->wants(afa::obs::Category::Fault))
            spanLog->record(afa::obs::Stage::FaultStall, io, stalled,
                            faulted, spanTrack);
    }
    procBusy = faulted + fwConfig.readProcTime;
    return procBusy;
}

Tick
Controller::throughXfer(Tick ready, afa::sim::Bytes bytes)
{
    Tick start = std::max(ready, xferBusy);
    xferBusy = start +
        afa::sim::transferTicks(bytes, fwConfig.internalMBps * 1e6);
    return xferBusy;
}

Tick
Controller::sampleHiccup()
{
    if (!rng().chance(fwConfig.hiccupProbability))
        return 0;
    ++ctrlStats.hiccups;
    auto penalty = static_cast<Tick>(rng().pareto(
        static_cast<double>(fwConfig.hiccupScale), fwConfig.hiccupShape));
    return std::min(penalty, fwConfig.hiccupCap);
}

void
Controller::complete(const NvmeCommand &cmd, std::uint32_t reply_bytes,
                     Status status)
{
    transport(reply_bytes, cmd.tag,
              NvmeCompletion{cmd.cmdId, cmd.queueId, status});
}

void
Controller::submit(const NvmeCommand &cmd)
{
    checkWired();
    if (isOffline) {
        // Dropped-out device: the command vanishes; the host driver's
        // timeout/retry path is the only recovery.
        ++ctrlStats.droppedCommands;
        return;
    }
    if (cmd.op == Op::Read)
        serveRead(cmd);
    else
        serveWrite(cmd);
}

std::uint32_t
Controller::chain(const NvmeCommand &cmd)
{
    const std::uint32_t c = chained.acquire();
    chained[c].cmd = cmd;
    return c;
}

void
Controller::finishRead(std::uint32_t c, Tick media_done)
{
    const Chained &rec = chained[c];
    const NvmeCommand &cmd = rec.cmd;
    const Tick media_begin = rec.mediaBegin;
    Tick xfer_ready = media_done + rec.hiccup;
    if (limp != 1.0) {
        // Limping device: the media stage takes `limp` times as
        // long; charge the excess after the healthy window.
        Tick extra = static_cast<Tick>(
            static_cast<double>(media_done - media_begin) *
            (limp - 1.0));
        ctrlStats.faultStallDelay += extra;
        if (extra && spanLog &&
            spanLog->wants(afa::obs::Category::Fault))
            spanLog->record(afa::obs::Stage::FaultStall, cmd.tag,
                            xfer_ready, xfer_ready + extra, spanTrack);
        xfer_ready += extra;
    }
    Tick xfer_done = throughXfer(xfer_ready, afa::sim::Bytes{cmd.bytes});
    if (spanLog && spanLog->wants(afa::obs::Category::Nvme)) {
        spanLog->record(afa::obs::Stage::MediaRead, cmd.tag,
                        media_begin, media_done, spanTrack);
        spanLog->record(afa::obs::Stage::DeviceXfer, cmd.tag,
                        xfer_ready, xfer_done, spanTrack);
    }
    at(xfer_done, [this, c] { completeRead(c); });
    // The DMA claim is made; later submissions may fast-path again.
    --chainDepth;
}

void
Controller::completeRead(std::uint32_t c)
{
    const NvmeCommand cmd = chained.take(c).cmd;
    ++ctrlStats.readsCompleted;
    ctrlStats.bytesRead += cmd.bytes;
    complete(cmd, cmd.bytes + 16, Status::Success);
}

void
Controller::serveRead(const NvmeCommand &cmd)
{
    if (cmd.bytes == 0 || cmd.bytes % kLogicalBlockBytes != 0) {
        complete(cmd, 16, Status::InvalidField);
        return;
    }
    Tick pipe_done = throughPipeline(cmd.tag);
    if (fastReadEligible(cmd, pipe_done)) {
        fastRead(cmd, pipe_done);
        return;
    }
    fallbackDispatch();
    const std::uint32_t c = chain(cmd);
    at(pipe_done, [this, c] { readMedia(c); });
}

void
Controller::readMedia(std::uint32_t c)
{
    const NvmeCommand cmd = chained[c].cmd;
    const std::uint64_t blocks = cmd.bytes / kLogicalBlockBytes;
    // Determine the media path: any mapped block forces NAND.
    std::uint64_t mapped = 0;
    for (std::uint64_t b = 0; b < blocks; ++b)
        if (ftlLayer.isMapped(cmd.lba + b))
            ++mapped;
    Chained &rec = chained[c];
    rec.hiccup = sampleHiccup();
    rec.mediaBegin = now();
    if (mapped == 0) {
        // FOB zero fill: no NAND involved.
        Tick media = static_cast<Tick>(rng().lognormal(
            static_cast<double>(fwConfig.fobReadLatency),
            fwConfig.fobReadSigma));
        finishRead(c, now() + media);
        return;
    }
    // Mapped: fan out one FTL read per mapped logical block;
    // unmapped holes inside the range are served as zeroes.
    rec.blocksLeft = mapped;
    for (std::uint64_t b = 0; b < blocks; ++b)
        if (ftlLayer.isMapped(cmd.lba + b))
            ftlLayer.readMapped(cmd.lba + b,
                                [this, c] { blockRead(c); }, cmd.tag);
}

void
Controller::blockRead(std::uint32_t c)
{
    if (--chained[c].blocksLeft == 0)
        finishRead(c, now());
}

bool
Controller::fastReadEligible(const NvmeCommand &cmd, Tick pipe_done)
{
    if (!fastPathEnabled || chainDepth != 0 || limp != 1.0)
        return false;
    // The limp factor is the one input to the pipe exit's work that
    // can change after submit: a planned onset at or before the pipe
    // exit keeps the read chained, whichever of the two runs first on
    // a shared tick.
    while (!limpOnsets.empty() && limpOnsets.back() < now())
        limpOnsets.pop_back();
    if (!limpOnsets.empty() && pipe_done >= limpOnsets.back())
        return false;
    // Only a wholly unmapped range skips NAND. With no chained
    // command pending, no write can map a block of it before the
    // pipe exit: a later write leaves the pipeline after this read.
    const std::uint64_t blocks = cmd.bytes / kLogicalBlockBytes;
    for (std::uint64_t b = 0; b < blocks; ++b)
        if (ftlLayer.isMapped(cmd.lba + b))
            return false;
    return true;
}

void
Controller::fastRead(const NvmeCommand &cmd, Tick pipe_done)
{
    ++ctrlStats.fastPathCommands;
    fastExitsBefore = pipe_done + 1;
    const std::uint32_t c = chain(cmd);
    Chained &rec = chained[c];
    // Draws happen in the reference order: hiccup first, then media.
    rec.hiccup = sampleHiccup();
    rec.mediaBegin = pipe_done;
    rec.mediaDone = pipe_done + static_cast<Tick>(rng().lognormal(
        static_cast<double>(fwConfig.fobReadLatency),
        fwConfig.fobReadSigma));
    // Every command submitted after this one leaves the pipeline
    // later, so this claim already sits in reference claim order.
    Tick xfer_done = throughXfer(rec.mediaDone + rec.hiccup,
                                 afa::sim::Bytes{cmd.bytes});
    at(xfer_done, [this, c] { fastReadDone(c); });
}

void
Controller::fastReadDone(std::uint32_t c)
{
    // Spans carry the exact reference values; they are recorded at
    // the completion tick rather than the reference claim tick, so
    // only the ring's recording order differs (attribution and drop
    // counts are order-independent).
    const Chained &rec = chained[c];
    if (spanLog && spanLog->wants(afa::obs::Category::Nvme)) {
        spanLog->record(afa::obs::Stage::MediaRead, rec.cmd.tag,
                        rec.mediaBegin, rec.mediaDone, spanTrack);
        spanLog->record(afa::obs::Stage::DeviceXfer, rec.cmd.tag,
                        rec.mediaDone + rec.hiccup, now(), spanTrack);
    }
    completeRead(c);
}

void
Controller::serveWrite(const NvmeCommand &cmd)
{
    if (cmd.bytes == 0 || cmd.bytes % kLogicalBlockBytes != 0) {
        complete(cmd, 16, Status::InvalidField);
        return;
    }
    const std::uint64_t blocks = cmd.bytes / kLogicalBlockBytes;
    Tick pipe_done = throughPipeline(cmd.tag);
    // Write pipe: sequential streams pay bandwidth, random writes pay
    // the per-command FTL overhead that caps random IOPS (Table I).
    bool sequential = cmd.lba == lastWriteEndLba;
    lastWriteEndLba = cmd.lba + blocks;
    const Tick bw_ticks = afa::sim::transferTicks(
        afa::sim::Bytes{cmd.bytes}, fwConfig.writeMBps * 1e6);
    Tick service = sequential
        ? bw_ticks
        : std::max(bw_ticks, fwConfig.randomWriteOverhead);
    if (limp != 1.0) {
        Tick extra =
            static_cast<Tick>(static_cast<double>(service) *
                              (limp - 1.0));
        ctrlStats.faultStallDelay += extra;
        service += extra;
    }
    Tick start = std::max(pipe_done, writePipeBusy);
    writePipeBusy = start + service;
    fallbackDispatch();
    const std::uint32_t c = chain(cmd);
    at(writePipeBusy, [this, c] { bufferWrite(c); });
}

void
Controller::bufferWrite(std::uint32_t c)
{
    Chained &rec = chained[c];
    const std::uint64_t lba = rec.cmd.lba;
    const std::uint64_t blocks = rec.cmd.bytes / kLogicalBlockBytes;
    rec.blocksLeft = blocks;
    for (std::uint64_t b = 0; b < blocks; ++b)
        ftlLayer.write(lba + b, [this, c] { blockBuffered(c); });
}

void
Controller::blockBuffered(std::uint32_t c)
{
    if (--chained[c].blocksLeft != 0)
        return;
    const NvmeCommand cmd = chained.take(c).cmd;
    ++ctrlStats.writesCompleted;
    ctrlStats.bytesWritten += cmd.bytes;
    complete(cmd, 16, Status::Success);
    // FTL placement (and any GC it started) is resolved.
    --chainDepth;
}

void
Controller::fallbackDispatch()
{
    ++chainDepth;
    ++ctrlStats.fallbackCommands;
}

} // namespace afa::nvme
