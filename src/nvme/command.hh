/**
 * @file
 * NVMe command representation used between the host driver model and
 * the SSD controller model. LBAs are in 4 KiB logical blocks (the
 * paper's I/O unit).
 */

#ifndef AFA_NVME_COMMAND_HH
#define AFA_NVME_COMMAND_HH

#include <cstdint>

namespace afa::nvme {

/** Logical block size all LBAs are expressed in. */
constexpr std::uint32_t kLogicalBlockBytes = 4096;

/** Operations the controller model implements. */
enum class Op : std::uint8_t {
    Read,  ///< NVM read
    Write, ///< NVM write
};

/** One NVMe command. */
struct NvmeCommand
{
    Op op = Op::Read;
    std::uint64_t lba = 0;        ///< in 4 KiB blocks
    std::uint32_t bytes = kLogicalBlockBytes;
    std::uint16_t queueId = 0;    ///< submission queue (per host CPU)
    std::uint64_t cmdId = 0;      ///< host-assigned tag
    std::uint64_t tag = 0;        ///< observability tag (0 = untagged)
};

/** Completion status. */
enum class Status : std::uint8_t {
    Success,
    InvalidField,
    /** Host driver gave up after its timeout/retry budget; the device
     *  never answered (dropped-out or unresponsive SSD). */
    TimedOut,
    /** Host driver aborted the command (e.g. queue teardown). */
    Aborted,
};

/** Completion record returned to the host. */
struct NvmeCompletion
{
    std::uint64_t cmdId = 0;
    std::uint16_t queueId = 0;
    Status status = Status::Success;
};

} // namespace afa::nvme

#endif // AFA_NVME_COMMAND_HH
