#include "nvme/controller.hh"

#include <algorithm>

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
    limp = factor;
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
    chained[c].limp = limp; // in force as the command reaches us
    return c;
}

Tick
Controller::xferReady(const Chained &rec, Tick media_done)
{
    Tick extra = 0;
    if (rec.limp != 1.0) {
        // Limping device: the media stage takes `limp` times as long;
        // the excess runs after the healthy window.
        extra = static_cast<Tick>(
            static_cast<double>(media_done - rec.mediaBegin) *
            (rec.limp - 1.0));
        ctrlStats.faultStallDelay += extra;
    }
    return media_done + rec.hiccup + extra;
}

void
Controller::readSpans(const Chained &rec, Tick media_done,
                      Tick xfer_ready, Tick xfer_done)
{
    if (!spanLog)
        return;
    const Tick limped_from = media_done + rec.hiccup;
    if (xfer_ready > limped_from &&
        spanLog->wants(afa::obs::Category::Fault))
        spanLog->record(afa::obs::Stage::FaultStall, rec.cmd.tag,
                        limped_from, xfer_ready, spanTrack);
    if (spanLog->wants(afa::obs::Category::Nvme)) {
        spanLog->record(afa::obs::Stage::MediaRead, rec.cmd.tag,
                        rec.mediaBegin, media_done, spanTrack);
        spanLog->record(afa::obs::Stage::DeviceXfer, rec.cmd.tag,
                        xfer_ready, xfer_done, spanTrack);
    }
}

void
Controller::finishRead(std::uint32_t c, Tick media_done)
{
    const Chained &rec = chained[c];
    const Tick xfer_ready = xferReady(rec, media_done);
    const Tick xfer_done =
        throughXfer(xfer_ready, afa::sim::Bytes{rec.cmd.bytes});
    readSpans(rec, media_done, xfer_ready, xfer_done);
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
    if (fastReadEligible(cmd)) {
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
Controller::fastReadEligible(const NvmeCommand &cmd)
{
    if (!fastPathEnabled || chainDepth != 0)
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
    const std::uint32_t c = chain(cmd);
    Chained &rec = chained[c];
    // Draws happen in the reference order: hiccup first, then media.
    rec.hiccup = sampleHiccup();
    rec.mediaBegin = pipe_done;
    rec.mediaDone = pipe_done + static_cast<Tick>(rng().lognormal(
        static_cast<double>(fwConfig.fobReadLatency),
        fwConfig.fobReadSigma));
    rec.xferReady = xferReady(rec, rec.mediaDone);
    // Every command submitted after this one leaves the pipeline
    // later, so this claim already sits in reference claim order.
    Tick xfer_done =
        throughXfer(rec.xferReady, afa::sim::Bytes{cmd.bytes});
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
    readSpans(rec, rec.mediaDone, rec.xferReady, now());
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
