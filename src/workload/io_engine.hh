/**
 * @file
 * The asynchronous I/O interface a FIO thread drives (the libaio
 * analogue). The production implementation is the NVMe driver glue in
 * afa::core, which routes submissions through the PCIe fabric to the
 * SSD controllers and completions back through the IRQ subsystem.
 */

#ifndef AFA_WORKLOAD_IO_ENGINE_HH
#define AFA_WORKLOAD_IO_ENGINE_HH

#include <cstdint>
#include <functional>

#include "nvme/command.hh"
#include "sim/types.hh"

namespace afa::workload {

/** CPU cost of the submit path (io_submit + blk-mq + driver). */
constexpr afa::sim::Tick kSubmitCost = afa::sim::nsec(1800);
/** CPU cost of reaping a completion (io_getevents return). */
constexpr afa::sim::Tick kReapCost = afa::sim::nsec(1200);
/** CPU-work size of one completion-poll step (FioJob::polling). */
constexpr afa::sim::Tick kPollQuantum = afa::sim::nsec(1000);

/**
 * Observability tag of a submitting task's @p seq-th IO: (task+1) in
 * the high half keeps tags unique across tasks (and off 0, untagged);
 * the low half is the task's own sequence number.
 */
constexpr std::uint64_t
ioTag(std::uint32_t task, std::uint32_t seq)
{
    return ((static_cast<std::uint64_t>(task) + 1) << 32) | seq;
}

/** One async request. */
struct IoRequest
{
    unsigned device = 0;
    afa::nvme::Op op = afa::nvme::Op::Read;
    std::uint64_t lba = 0;
    std::uint32_t bytes = 4096;
    /** Observability tag threaded through every span this IO emits
     *  (0 = untagged). Never interpreted by the device models. */
    std::uint64_t tag = 0;
};

/**
 * Outcome of one async request, handed to the completion callback.
 *
 * @p cpu is the CPU the completion was handled on (the interrupt
 * handler's CPU, or the submitter's for a driver-side abort). @p
 * status is the NVMe completion status; a command the driver gave up
 * on after its timeout/retry budget reports Status::TimedOut without
 * the device ever answering.
 */
struct IoResult
{
    unsigned cpu = 0;
    afa::nvme::Status status = afa::nvme::Status::Success;

    bool ok() const { return status == afa::nvme::Status::Success; }
};

/**
 * Async I/O engine.
 *
 * submit() returns immediately; @p on_device_complete fires in
 * interrupt context on the CPU that handled the completion interrupt
 * (possibly a different CPU from the submitter -- the paper's
 * affinity problem). The caller wakes its task after
 * host::Scheduler::wakeIpi and charges the reap (kReapCost) through
 * host::Scheduler::runFor.
 */
class IoEngine
{
  public:
    using CompleteFn = std::function<void(const IoResult &result)>;

    virtual ~IoEngine() = default;

    /** Submit from @p cpu (the submitting thread's current CPU). */
    virtual void submit(unsigned cpu, const IoRequest &request,
                        CompleteFn on_device_complete) = 0;

    /** Logical capacity of a device in 4 KiB blocks. */
    virtual std::uint64_t deviceBlocks(unsigned device) const = 0;
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_IO_ENGINE_HH
