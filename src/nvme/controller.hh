/**
 * @file
 * The NVMe SSD controller model.
 *
 * A command arriving from the host passes through:
 *   1. the command pipeline, a serialising server (readProcTime per
 *      command) that is also where SMART housekeeping stalls bite;
 *   2. the media stage: zero fill for unmapped (FOB) reads,
 *      NAND via the FTL for mapped data, the write pipe for writes;
 *   3. the internal DMA engine (internalMBps) moving data to the host
 *      buffer;
 *   4. the transport (PCIe fabric, injected by the host glue), which
 *      carries the completion to the host.
 *
 * One controller exposes one queue pair per host logical CPU, like
 * the Linux 4.7 NVMe driver the paper used (64 SSDs x 40 CPUs =
 * 2,560 interrupt vectors system-wide).
 */

#ifndef AFA_NVME_CONTROLLER_HH
#define AFA_NVME_CONTROLLER_HH

#include <functional>

#include "nand/nand_array.hh"
#include "nvme/command.hh"
#include "nvme/firmware_config.hh"
#include "nvme/ftl.hh"
#include "nvme/smart.hh"
#include "sim/pool.hh"
#include "sim/sim_object.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::nvme {

/** Controller activity counters. */
struct ControllerStats
{
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t hiccups = 0;
    Tick smartStallDelay = 0; ///< total time commands waited on SMART
    /** Commands swallowed while the device was dropped out; only the
     *  host driver's timeout path recovers them. */
    std::uint64_t droppedCommands = 0;
    /** Total extra service time injected by limp/stall faults. */
    Tick faultStallDelay = 0;
    /** Commands served by the single-event fast path. */
    std::uint64_t fastPathCommands = 0;
    /** Commands served by the chained event model. */
    std::uint64_t fallbackCommands = 0;
};

/** The SSD controller. */
class Controller : public afa::sim::SimObject
{
  public:
    /**
     * Device-to-host delivery of @p completion in a @p bytes reply;
     * injected by the host glue, typically a Fabric::sendSpanned()
     * whose delivery hands the completion to the driver. @p io is the
     * command's observability tag (0 = untagged) so the transport can
     * attribute the transfer to the IO.
     */
    using TransportFn = std::function<void(
        std::uint32_t bytes, std::uint64_t io,
        const NvmeCompletion &completion)>;

    Controller(afa::sim::Simulator &simulator,
               std::string controller_name,
               const FirmwareConfig &firmware_config,
               afa::nand::NandArray &nand_array,
               const FtlParams &ftl_params);

    /** Install the device-to-host transport. Required before use. */
    void setTransport(TransportFn transport);

    /** Begin background activity (the SMART schedule). */
    void start();

    /**
     * A command has arrived at the device (the host glue calls this
     * after simulating the submission-side fabric transfer).
     */
    void submit(const NvmeCommand &cmd);

    /** Attach the span log; spans use @p track (this SSD's). Also
     *  wires the FTL and NAND layers underneath. */
    void setSpanLog(afa::obs::SpanLog *log, std::uint16_t track);

    // ------------------------------------------------------------------
    // Injected fault hooks (driven by fault::FaultEngine). All default
    // to the healthy state and cost nothing while there: one compare
    // on the submit path, one max in the pipeline.
    // ------------------------------------------------------------------

    /**
     * Largest limp factor. Bounds the injected excess, media time x
     * (factor - 1), far inside Tick for any modelled media time.
     */
    static constexpr double kMaxLimpFactor = 1e6;

    /**
     * Limping device: media service time and the write pipe scale by
     * @p factor (in [1, kMaxLimpFactor]; 1 restores health). A command
     * takes the factor in force when it reaches the device (submit()),
     * on either model. The added time is recorded as FaultStall spans
     * and ControllerStats::faultStallDelay.
     */
    void setLimpFactor(double factor);

    /** Current limp factor (1 = healthy). */
    double limpFactor() const { return limp; }

    /** Dropped-out device: submitted commands are silently lost. */
    void setOffline(bool offline);

    /** Freeze the command pipeline until @p until (firmware stall). */
    void stallUntil(Tick until);

    /**
     * Enable/disable the single-event command fast path (default
     * on). It acts at submit: a fast read in flight is final and
     * keeps its event, so a mid-run switch stays exact. Completion
     * ticks, RNG draw order, horizons, stats and span values are
     * identical either way; only the executed-event count (and span
     * ring order) differ.
     */
    void setFastPath(bool enabled);

    /** True when the single-event command fast path is enabled. */
    bool fastPath() const { return fastPathEnabled; }

    Ftl &ftl() { return ftlLayer; }
    const Ftl &ftl() const { return ftlLayer; }
    SmartEngine &smart() { return smartEngine; }
    const FirmwareConfig &firmware() const { return fwConfig; }
    const ControllerStats &stats() const { return ctrlStats; }

  private:
    FirmwareConfig fwConfig;
    Ftl ftlLayer;
    SmartEngine smartEngine;

    TransportFn transport;

    // Busy horizons of the serialising stages.
    Tick procBusy;
    Tick xferBusy;
    Tick writePipeBusy;
    std::uint64_t lastWriteEndLba;

    // Injected fault state (healthy defaults).
    double limp = 1.0;
    bool isOffline = false;
    Tick faultStallUntilTick = 0;

    ControllerStats ctrlStats;
    afa::obs::SpanLog *spanLog = nullptr;
    std::uint16_t spanTrack = 0;

    /**
     * A command in flight, from dispatch to its completion event: a
     * chained command, or a fast read. Its events and FTL/NAND
     * callbacks capture [this, record index] (DESIGN.md §9,
     * "Allocation budget").
     */
    struct Chained
    {
        NvmeCommand cmd;
        double limp = 1.0;   ///< limp factor at submit (reads use it)
        Tick hiccup = 0;     ///< read: sampled firmware hiccup
        Tick mediaBegin = 0; ///< read: media stage start
        Tick mediaDone = 0;  ///< fast read: its media end
        Tick xferReady = 0;  ///< fast read: its DMA start
        /** Mapped read: NAND reads outstanding; write: blocks not
         *  yet accepted by the FTL buffer. */
        std::uint64_t blocksLeft = 0;
    };
    afa::sim::Pool<Chained> chained;

    // ------------------------------------------------------------------
    // Single-event command fast path (DESIGN.md §9). A read of wholly
    // unmapped (FOB) blocks with no chained command pending draws its
    // hiccup and media latency, applies its limp excess and claims
    // the DMA engine at submit -- in the chained model's FP operation
    // and RNG draw order -- and schedules one completion event. The
    // pipeline is one FIFO server and the limp factor is the one
    // taken at submit, so nothing later can change what the read
    // computes at its pipe exit: the read is final at submit. Every
    // other command takes the chained model.
    // ------------------------------------------------------------------

    bool fastPathEnabled = true;
    /** Chained commands dispatched but not yet past their last draw
     *  or claim: a read's DMA claim (finishRead), a write's last
     *  buffered block (blockBuffered). Any nonzero depth disables the
     *  fast path: a chained command draws from the shared streams at
     *  its own event times, so a fast command submitted behind it
     *  would reorder draws. */
    unsigned chainDepth = 0;

    void serveRead(const NvmeCommand &cmd);
    void serveWrite(const NvmeCommand &cmd);

    /** Pass through the command pipeline (readProcTime per command);
     *  returns its exit tick. @p io tags the queue-wait and stall
     *  spans. */
    Tick throughPipeline(std::uint64_t io);

    /** Reserve the internal DMA engine from @p ready; returns end. */
    Tick throughXfer(Tick ready, afa::sim::Bytes bytes);

    /** Sample an optional firmware hiccup penalty. */
    Tick sampleHiccup();

    // Fast-path machinery ----------------------------------------------

    /** True when @p cmd (a read) may take the fast path. */
    bool fastReadEligible(const NvmeCommand &cmd);

    /** A read's DMA start after its media end @p media_done, hiccup
     *  and limp excess; charges the excess to faultStallDelay. */
    Tick xferReady(const Chained &rec, Tick media_done);

    /** A read's fault-stall, media and transfer spans. */
    void readSpans(const Chained &rec, Tick media_done, Tick xfer_ready,
                   Tick xfer_done);

    /** Draw latencies and claim the DMA engine at submit; one event. */
    void fastRead(const NvmeCommand &cmd, Tick pipe_done);

    /** Chained dispatch bookkeeping: raise the chain guard. */
    void fallbackDispatch();

    /** At submit: a Chained record for @p cmd and the limp factor. */
    std::uint32_t chain(const NvmeCommand &cmd);

    /** Chained read at its pipe exit: FOB zero fill, or one FTL read
     *  per mapped block. */
    void readMedia(std::uint32_t c);

    /** One of a mapped read's NAND reads is done. */
    void blockRead(std::uint32_t c);

    /** Chained read tail (the reference finish()): limp accounting,
     *  DMA claim, spans, completion event. Runs at the claim tick;
     *  the record holds the hiccup and media start. */
    void finishRead(std::uint32_t c, Tick media_done);

    /** Read completion event. */
    void completeRead(std::uint32_t c);

    /** Chained write at its write-pipe exit: hand each block to the
     *  FTL. */
    void bufferWrite(std::uint32_t c);

    /** One of a write's blocks is in the FTL buffer. */
    void blockBuffered(std::uint32_t c);

    /** Fast read completion event: records the read's spans, then
     *  completes. */
    void fastReadDone(std::uint32_t c);

    void complete(const NvmeCommand &cmd, std::uint32_t reply_bytes,
                  Status status);
    void checkWired() const;
};

} // namespace afa::nvme

#endif // AFA_NVME_CONTROLLER_HH
