/**
 * @file
 * Page-mapped flash translation layer.
 *
 * Logical 4 KiB blocks map onto 4 KiB slots within NAND pages.
 * Writes are buffered in controller DRAM, packed into full pages, and
 * programmed log-structured with the page stream striped round-robin
 * across dies (one open block per die) for parallelism; a greedy
 * garbage collector reclaims the emptiest blocks when the free pool
 * runs low.
 *
 * In the paper's experiments every drive is kept FOB (fresh out of
 * box, via NVMe format), so host reads never consult NAND; the FTL
 * exists to support the Table I spec benches, open-loop writes, and
 * the aged-drive (non-FOB) ablation the paper lists as future work.
 *
 * Both mapping tables (LBA -> physical slot and slot -> LBA) hold
 * 32-bit entries in fixed 256-entry leaves allocated on the first
 * write into them, so a FOB drive holds no map memory at all and a
 * written one only the leaves it touched (DFTL-style demand paging,
 * applied to host memory). Geometries with 2^32 or more slots or
 * logical blocks are rejected at construction.
 */

#ifndef AFA_NVME_FTL_HH
#define AFA_NVME_FTL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "nand/nand_array.hh"
#include "nvme/command.hh"
#include "sim/event_fn.hh"
#include "sim/sim_object.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::nvme {

using afa::sim::Tick;

/** FTL geometry and policy. */
struct FtlParams
{
    /** Exported logical capacity in 4 KiB blocks. The NAND geometry
     *  alone sets physical capacity, which must hold this many. */
    std::uint64_t logicalBlocks = 262144; // 1 GiB

    /** Start GC when the free block pool drops below this count. */
    unsigned gcFreeBlockThreshold = 4;

    /** Stop GC when the pool recovers to this count. */
    unsigned gcFreeBlockTarget = 8;

    /** Volatile write buffer capacity in 4 KiB entries. */
    unsigned writeBufferEntries = 1024;
};

/** FTL activity counters. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t hostReadsMapped = 0;
    std::uint64_t gcPageReads = 0;
    std::uint64_t gcSlotWrites = 0;
    std::uint64_t erases = 0;
    std::uint64_t programs = 0;
    std::uint64_t gcRuns = 0;
};

/**
 * The FTL. All operations are asynchronous; callbacks fire on the
 * owning simulator's event loop.
 */
class Ftl : public afa::sim::SimObject
{
  public:
    /** Completion callback (move-only; null where the API allows it). */
    using DoneFn = afa::sim::EventFn;

    Ftl(afa::sim::Simulator &simulator, std::string ftl_name,
        afa::nand::NandArray &nand_array, const FtlParams &ftl_params);

    /** True when @p lba has been written since the last format. */
    bool isMapped(std::uint64_t lba) const;

    /**
     * Read a mapped logical block from NAND. The caller must ensure
     * isMapped(lba); the controller zero-fills unmapped blocks without
     * NAND. @p io tags the obs spans this read emits.
     */
    void readMapped(std::uint64_t lba, DoneFn done,
                    std::uint64_t io = 0);

    /** Attach the span log; spans use @p track (the owning SSD's). */
    void
    setSpanLog(afa::obs::SpanLog *log, std::uint16_t track)
    {
        spanLog = log;
        spanTrack = track;
        nand.setSpanLog(log, track);
    }

    /**
     * Write a logical block. @p on_buffered (may be null) fires when
     * the data is accepted into the volatile buffer (possibly delayed
     * by buffer backpressure); programming to NAND proceeds
     * asynchronously.
     */
    void write(std::uint64_t lba, DoneFn on_buffered);

    /** Return the drive to FOB: all mappings dropped. Instant. */
    void format();

    /**
     * Instantly mark a fraction of the logical space as written
     * (page-striped across dies, like the write path would), without
     * modelling the write traffic. Used to set up aged-drive and
     * Table I read experiments.
     */
    void precondition(double mapped_fraction);

    /** Entries currently buffered in DRAM. */
    unsigned buffered() const { return bufferedEntries; }

    /** Free NAND blocks remaining (across all dies). */
    std::size_t freeBlocks() const;

    /** Logical capacity in 4 KiB blocks. */
    std::uint64_t logicalBlocks() const { return params.logicalBlocks; }

    const FtlStats &stats() const { return ftlStats; }

    /** Bytes held by the allocated leaves of both mapping tables. */
    std::size_t tableBytes() const;

  private:
    /**
     * A table of 32-bit entries stored in fixed 256-entry leaves. A
     * leaf is allocated on the first write into it; an absent leaf
     * reads as kNone.
     */
    class LeafTable
    {
      public:
        static constexpr std::uint32_t kNone = ~std::uint32_t(0);

        /** Size the table to @p entries, all kNone; frees every leaf. */
        void
        reset(std::uint64_t entries)
        {
            leaves.clear();
            leaves.resize((entries + kLeafEntries - 1) / kLeafEntries);
        }

        std::uint32_t
        get(std::uint64_t i) const
        {
            const auto &leaf = leaves[i / kLeafEntries];
            return leaf ? (*leaf)[i % kLeafEntries] : kNone;
        }

        void
        set(std::uint64_t i, std::uint32_t v)
        {
            auto &leaf = leaves[i / kLeafEntries];
            if (!leaf) {
                leaf = std::make_unique<Leaf>();
                leaf->fill(kNone);
            }
            (*leaf)[i % kLeafEntries] = v;
        }

        /** Bytes held by allocated leaves. */
        std::size_t
        bytes() const
        {
            std::size_t n = 0;
            for (const auto &leaf : leaves)
                n += leaf ? sizeof(Leaf) : 0;
            return n;
        }

      private:
        static constexpr std::size_t kLeafEntries = 256;
        using Leaf = std::array<std::uint32_t, kLeafEntries>;
        std::vector<std::unique_ptr<Leaf>> leaves;
    };

    /** gcStep's "no victim block" sentinel. */
    static constexpr std::uint64_t kNoVictim = ~std::uint64_t(0);

    /**
     * Free blocks kept back for GC relocation (write-cliff guard).
     * One per die: a relocation pass can close at most one frontier
     * block per die before its erase returns a block to the pool.
     */
    std::size_t reserveBlocks;
    unsigned gcThreshold; ///< effective, >= reserveBlocks + 2
    unsigned gcTarget;    ///< effective, >= gcThreshold + 2

    struct BlockInfo
    {
        std::uint32_t validSlots = 0;
        bool open = false; ///< currently a write frontier
        bool free = true;  ///< in the free pool
    };

    /** Per-die write frontier (one open block per die). */
    struct DieFrontier
    {
        bool valid = false;
        std::uint64_t block = 0; ///< global block id
        std::uint32_t page = 0;
        std::uint32_t slot = 0;
        unsigned stagedHostEntries = 0; ///< host slots in current page
    };

    FtlParams params;
    afa::nand::NandArray &nand;
    unsigned slotsPerPage;
    std::uint64_t totalBlocksPhys; ///< NAND blocks across all dies
    std::uint64_t slotsPerBlock;
    unsigned dies;

    /** lba -> phys slot; sized at construction. */
    LeafTable map;
    /** phys slot -> lba; sized with the other write structures. */
    LeafTable reverse;
    std::vector<BlockInfo> blockInfo; ///< per physical block
    std::vector<std::vector<std::uint64_t>> freePerDie;
    std::vector<DieFrontier> frontier;
    unsigned nextDie;

    unsigned bufferedEntries;
    std::deque<std::pair<std::uint64_t, DoneFn>> pendingWrites;
    bool gcActive;
    bool writeStructuresReady;

    FtlStats ftlStats;
    afa::obs::SpanLog *spanLog = nullptr;
    std::uint16_t spanTrack = 0;

    void ensureWriteStructures();
    bool canAdmitWrite() const;
    void admitPendingWrites();
    void placeWrite(std::uint64_t lba, DoneFn on_buffered);
    /** Allocate the next slot on the striped frontier. */
    std::uint64_t allocSlot(bool host_path);
    void openBlockOnDie(unsigned die);
    /** Program @p die's frontier page; allocSlot() calls it once the
     *  page is full. */
    void programFrontierPage(unsigned die);
    void maybeStartGc();
    void gcStep();
    void finishProgram(unsigned host_entries);
    afa::nand::PageAddr slotToAddr(std::uint64_t slot) const;
    std::uint64_t blockOfSlot(std::uint64_t slot) const;
    /** Map @p lba to @p slot both ways and count the slot valid. */
    void bind(std::uint64_t lba, std::uint64_t slot);
    void invalidate(std::uint64_t lba);
};

} // namespace afa::nvme

#endif // AFA_NVME_FTL_HH
