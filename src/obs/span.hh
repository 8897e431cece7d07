/**
 * @file
 * The span taxonomy: typed per-IO latency stages, their category
 * bitmask, and the packed POD record the SpanLog ring buffer stores.
 *
 * Every stage a completed IO passes through on the simulated testbed
 * — submit-queue wait, scheduler delay, fabric transit, controller
 * queueing, FTL lookup, NAND read, SMART stall, completion IRQ
 * delivery — is one Stage value; a SpanRecord ties a [begin, end)
 * Tick window to the IO's tag and a display track (one per host CPU
 * or SSD). SpanLog is the simulator's one tracer, the analogue of the
 * paper's LTTng runs: records are 32-byte PODs, recording never
 * allocates, and whole categories compile out via
 * AFA_OBS_COMPILED_CATEGORIES.
 *
 * Determinism contract (DESIGN.md "Observability contract"): span
 * timestamps are simulated Ticks, never wall clock, and recording a
 * span must not schedule events, draw random numbers, or otherwise
 * perturb simulation state — results stay bit-identical with tracing
 * on, off, or compiled out.
 */

#ifndef AFA_OBS_SPAN_HH
#define AFA_OBS_SPAN_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace afa::obs {

using afa::sim::Tick;

/** The per-IO latency stages (see DESIGN.md for the taxonomy). */
enum class Stage : std::uint8_t {
    Complete = 0,    ///< whole IO: submit return -> reap done (fio clat)
    SubmitQueue,     ///< wanting to submit -> submit syscall returned
    SchedulerWait,   ///< fio task runnable -> running (per dispatch)
    FabricSubmit,    ///< SQE + doorbell crossing the PCIe fabric
    FabricComplete,  ///< CQE + data crossing the fabric device->host
    ControllerQueue, ///< command arrival -> pipeline slot free
    SmartStall,      ///< pipeline slot held back by SMART housekeeping
    MediaRead,       ///< media stage: zero-fill or NAND window
    FtlRead,         ///< FTL mapped-read: lookup + NAND completion
    NandRead,        ///< die tR + channel transfer for one page read
    DeviceXfer,      ///< controller internal DMA to the host buffer
    IrqDeliver,      ///< MSI-X raise -> completion handler ran
    FaultStall,      ///< injected device fault: limp/stall extra time
    RetryWait,       ///< driver timeout -> backoff -> resubmission
    RebuildIo,       ///< one rebuild-engine chunk (read+rewrite)
};

/** Number of stages (array sizing). */
constexpr unsigned kStageCount = 15;

/** Category bits for enabling/compiling-out groups of stages. */
enum class Category : std::uint32_t {
    Workload = 1u << 0, ///< Complete, SubmitQueue
    Sched = 1u << 1,    ///< SchedulerWait
    Pcie = 1u << 2,     ///< FabricSubmit, FabricComplete
    Nvme = 1u << 3,     ///< ControllerQueue, MediaRead, DeviceXfer
    Smart = 1u << 4,    ///< SmartStall
    Ftl = 1u << 5,      ///< FtlRead
    Nand = 1u << 6,     ///< NandRead
    Irq = 1u << 7,      ///< IrqDeliver
    Fault = 1u << 8,    ///< FaultStall, RetryWait, RebuildIo
};

/** All categories enabled. */
constexpr std::uint32_t kAllCategories = 0x1ffu;

constexpr std::uint32_t
categoryBit(Category c)
{
    return static_cast<std::uint32_t>(c);
}

/**
 * Categories baked into the build. Recording sites check
 * (AFA_OBS_COMPILED_CATEGORIES & categoryBit(...)) as a constant, so
 * a category compiled out costs literally nothing at runtime.
 * Override with -DAFA_OBS_COMPILED_CATEGORIES=0 to compile all span
 * recording out of the binary.
 */
#ifndef AFA_OBS_COMPILED_CATEGORIES
#define AFA_OBS_COMPILED_CATEGORIES 0xffffffffu
#endif

/** The category a stage records under. */
constexpr Category
categoryOf(Stage stage)
{
    switch (stage) {
      case Stage::Complete:
      case Stage::SubmitQueue:
        return Category::Workload;
      case Stage::SchedulerWait:
        return Category::Sched;
      case Stage::FabricSubmit:
      case Stage::FabricComplete:
        return Category::Pcie;
      case Stage::ControllerQueue:
      case Stage::MediaRead:
      case Stage::DeviceXfer:
        return Category::Nvme;
      case Stage::SmartStall:
        return Category::Smart;
      case Stage::FtlRead:
        return Category::Ftl;
      case Stage::NandRead:
        return Category::Nand;
      case Stage::IrqDeliver:
        return Category::Irq;
      case Stage::FaultStall:
      case Stage::RetryWait:
      case Stage::RebuildIo:
        return Category::Fault;
    }
    return Category::Workload;
}

/** Stable display name of a stage ("sched_wait", "nand_read", ...). */
const char *stageName(Stage stage);

/** Display name of a category ("sched", "irq", ...). */
const char *categoryName(Category category);

/**
 * Parse a --trace category list: comma-separated category names, or
 * "all". Unknown names are a user configuration error (sim::fatal).
 */
std::uint32_t parseCategories(std::string_view list);

/** SpanRecord::flags bits. */
constexpr std::uint8_t kSpanFlagFastPath = 0x01; ///< fabric fast path
constexpr std::uint8_t kSpanFlagFallback = 0x02; ///< per-hop fallback
constexpr std::uint8_t kSpanFlagSelf = 0x04;     ///< self-send (0 hops)
constexpr std::uint8_t kSpanFlagRemote = 0x08;   ///< IRQ off-queue CPU

/**
 * One recorded span: a stage of one IO between two Ticks. Packed to
 * 32 bytes so a full ring stays cache- and memory-friendly.
 */
struct SpanRecord
{
    Tick begin = 0;         ///< stage entry tick (ns)
    Tick end = 0;           ///< stage exit tick (ns)
    std::uint64_t io = 0;   ///< IO tag (0 = not tied to one IO)
    std::uint32_t arg = 0;  ///< stage-specific detail (bytes, task...)
    std::uint16_t track = 0;///< display track (cpuTrack()/ssdTrack())
    std::uint8_t stage = 0; ///< Stage
    std::uint8_t flags = 0; ///< kSpanFlag* bits

    Tick duration() const { return end - begin; }
    Stage stageId() const { return static_cast<Stage>(stage); }
};

static_assert(sizeof(SpanRecord) == 32, "SpanRecord must stay packed");

// ---------------------------------------------------------------------
// Display tracks: one per host CPU, one per SSD.
// ---------------------------------------------------------------------

/** Track id of a host logical CPU (CPU numbers are < 64). */
constexpr std::uint16_t
cpuTrack(unsigned cpu)
{
    return static_cast<std::uint16_t>(cpu + 1);
}

/** Track id of an SSD. */
constexpr std::uint16_t
ssdTrack(unsigned ssd)
{
    return static_cast<std::uint16_t>(0x1000u + ssd);
}

/** Human-readable track name ("cpu3", "nvme17"). */
std::string trackName(std::uint16_t track);

} // namespace afa::obs

#endif // AFA_OBS_SPAN_HH
