/**
 * @file
 * Striped (RAID-0) and parity (RAID-5) volumes over the AFA.
 *
 * The paper's introduction motivates why tail latency dominates AFA
 * design: "one request from a client is divided into multiple I/Os,
 * which are then distributed to many SSDs in parallel as in RAID ...
 * long tail latency of the slowest SSD decides the system's overall
 * responsiveness" (the Dean & Barroso tail-at-scale effect). These
 * volumes make that effect measurable: a StripedVolume fans a client
 * I/O out across member SSDs and completes when the *slowest* member
 * does; a ParityVolume reconstructs a failed member's blocks from
 * the survivors.
 *
 * Volumes implement workload::IoEngine, so a FioThread can drive a
 * volume exactly as it drives a raw device -- composition mirrors the
 * Linux block stack (md/dm over nvme).
 */

#ifndef AFA_RAID_VOLUME_HH
#define AFA_RAID_VOLUME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/sim_object.hh"
#include "workload/io_engine.hh"

namespace afa::raid {

/** Statistics of a volume. */
struct VolumeStats
{
    std::uint64_t clientIos = 0;
    std::uint64_t memberIos = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Reads served degraded: a parity reconstruction from the
     *  surviving members. */
    std::uint64_t degradedReads = 0;
    /** Client IOs that completed with an error status (every member
     *  that could serve them had failed). */
    std::uint64_t failedIos = 0;
};

/**
 * RAID-0: client LBAs striped strip-by-strip across member devices.
 * A client I/O spanning several strips completes when every member
 * sub-I/O has completed (the fan-out join that exposes the slowest
 * member's tail).
 */
class StripedVolume : public afa::sim::SimObject,
                      public afa::workload::IoEngine
{
  public:
    /**
     * @param engine the underlying device engine (the NVMe driver)
     * @param members device indices forming the volume
     * @param strip_blocks strip size in 4 KiB blocks
     */
    StripedVolume(afa::sim::Simulator &simulator,
                  std::string volume_name,
                  afa::workload::IoEngine &engine,
                  std::vector<unsigned> members,
                  std::uint32_t strip_blocks = 1);

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;

    /** Volume capacity: the striped sum of member capacities. */
    std::uint64_t deviceBlocks(unsigned device) const override;

    unsigned width() const
    {
        return static_cast<unsigned>(members.size());
    }
    const VolumeStats &stats() const { return volStats; }

    /** Map a volume LBA to (member index, member LBA). */
    std::pair<unsigned, std::uint64_t>
    mapBlock(std::uint64_t volume_lba) const;

  private:
    afa::workload::IoEngine &inner;
    std::vector<unsigned> members;
    std::uint32_t stripBlocks;
    VolumeStats volStats;
};

/**
 * RAID-5: data strips rotate with one parity strip per stripe.
 *
 * Healthy reads go to the data member alone; when that member is
 * failed the block is reconstructed by reading the stripe row from
 * every surviving member — the degraded fan-out whose join exposes
 * the slowest survivor, which is what makes a rebuilding array slow.
 * Writes pay the classic small-write penalty: read old data + old
 * parity, then write data + parity (degraded writes fall back to
 * updating whichever of the pair still lives).
 */
class ParityVolume : public afa::sim::SimObject,
                     public afa::workload::IoEngine
{
  public:
    ParityVolume(afa::sim::Simulator &simulator,
                 std::string volume_name,
                 afa::workload::IoEngine &engine,
                 std::vector<unsigned> members,
                 std::uint32_t strip_blocks = 1);

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;

    /** Volume capacity: (width - 1) data shares of the smallest. */
    std::uint64_t deviceBlocks(unsigned device) const override;

    unsigned width() const
    {
        return static_cast<unsigned>(members.size());
    }
    const VolumeStats &stats() const { return volStats; }

    /** Mark/restore a failed member (at most one at a time). */
    void setMemberFailed(unsigned member_index, bool failed);

    /** True while a member is marked failed. */
    bool memberFailed(unsigned member_index) const;

    /**
     * Map a volume LBA to (data member index, parity member index,
     * member LBA). Member indices are positions in the member list.
     */
    struct BlockMap
    {
        unsigned dataMember;
        unsigned parityMember;
        std::uint64_t memberLba;
    };
    BlockMap mapBlock(std::uint64_t volume_lba) const;

  private:
    afa::workload::IoEngine &inner;
    std::vector<unsigned> members;
    std::uint32_t stripBlocks;
    VolumeStats volStats;
    std::vector<bool> failedMembers;

    void readBlock(unsigned cpu, const BlockMap &map,
                   std::uint64_t tag, CompleteFn on_done);
    void writeBlock(unsigned cpu, const BlockMap &map,
                    std::uint64_t tag, CompleteFn on_done);
};

} // namespace afa::raid

#endif // AFA_RAID_VOLUME_HH
