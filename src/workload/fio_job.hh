/**
 * @file
 * FIO-style job description and option parsing.
 *
 * The paper's workload is `rw=randread bs=4k iodepth=1 runtime=120
 * direct=1 ioengine=libaio` with cpus_allowed pinning. A job's per-IO
 * options use fio's vocabulary (space- or comma-separated "key=value"
 * pairs) so jobs read like fio job files; the keys a run sets itself
 * (name, runtime, cpus_allowed, rtprio, polling) are fields only.
 */

#ifndef AFA_WORKLOAD_FIO_JOB_HH
#define AFA_WORKLOAD_FIO_JOB_HH

#include <cstdint>
#include <string>

#include "host/scheduler.hh"
#include "sim/types.hh"

namespace afa::workload {

using afa::sim::Tick;

/** I/O pattern. */
enum class RwMode : std::uint8_t {
    Read,      ///< sequential read
    Write,     ///< sequential write
    RandRead,  ///< random read (the paper's workload)
    RandWrite, ///< random write
    RandRw,    ///< mixed random
};

/** Parse fio's rw= spelling. */
RwMode parseRwMode(const std::string &text);

/** Name of an RwMode (fio spelling). */
const char *rwModeName(RwMode mode);

/** Deepest iodepth a job may ask for: NVMe's 64 Ki-entry queue. */
constexpr unsigned kMaxIoDepth = 65536;

/** One fio job (per-thread parameters). */
struct FioJob
{
    std::string name = "job0";
    RwMode rw = RwMode::RandRead;
    /** bs: a positive multiple of 4 KiB that fits the 32-bit
     *  NvmeCommand::bytes. */
    std::uint32_t blockSize = 4096;
    /** iodepth, in [1, kMaxIoDepth]. */
    unsigned ioDepth = 1;
    Tick runtime = afa::sim::sec(120);
    /** Mixed-mode read fraction (rwmixread, percent). */
    unsigned rwMixRead = 50;
    /** Target range in logical blocks; 0 size = whole device. */
    std::uint64_t offsetBlocks = 0;
    std::uint64_t sizeBlocks = 0;
    /** cpus_allowed: pinning mask. */
    afa::host::CpuMask cpusAllowed = afa::host::kAllCpus;
    /** chrt: run the thread SCHED_FIFO at this priority (0 = CFS). */
    int rtPriority = 0;

    /** Thinktime between IOs (0 for the paper's closed loop). */
    Tick thinkTime = 0;

    /**
     * Poll for completions instead of sleeping on the interrupt
     * (Section V's poll-vs-interrupt discussion). The thread burns
     * its CPU in kPollQuantum slices until the CQE appears; requires
     * iodepth=1 and a system with polled completions enabled.
     */
    bool polling = false;

    /**
     * Parse "key=value" options (whitespace or comma separated) into
     * a job, starting from the defaults above. Unknown keys are
     * fatal. Supported keys: rw, bs, iodepth, rwmixread, offset,
     * size, thinktime; direct, ioengine, group_reporting and
     * numjobs=1 are accepted and ignored. The run sets name, runtime,
     * cpus_allowed, rtprio and polling, so those keys are unknown.
     */
    static FioJob parse(const std::string &spec);
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_FIO_JOB_HH
