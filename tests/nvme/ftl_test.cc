/**
 * @file
 * FTL tests: mapping lifecycle, write buffering and backpressure,
 * format, preconditioning, die striping, and garbage collection.
 */

#include <gtest/gtest.h>

#include "nand/nand_array.hh"
#include "nvme/ftl.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using afa::nand::NandArray;
using afa::nand::NandParams;
using afa::nvme::Ftl;
using afa::nvme::FtlParams;
using afa::sim::Simulator;

namespace {

NandParams
smallNand()
{
    NandParams p;
    p.channels = 2;
    p.diesPerChannel = 2;
    p.pagesPerBlock = 4;
    p.blocksPerDie = 16;
    p.readSigma = 0.0;
    p.programSigma = 0.0;
    p.eraseSigma = 0.0;
    return p;
}

FtlParams
smallFtl()
{
    FtlParams p;
    // 4 dies * 16 blocks * 4 pages * 4 slots = 1024 phys slots.
    p.logicalBlocks = 512;
    p.gcFreeBlockThreshold = 4;
    p.gcFreeBlockTarget = 6;
    p.writeBufferEntries = 64;
    return p;
}

class FtlTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        afa::sim::setThrowOnError(true);
        sim = std::make_unique<Simulator>(5);
        nand = std::make_unique<NandArray>(*sim, "nand", smallNand());
        ftl = std::make_unique<Ftl>(*sim, "ftl", *nand, smallFtl());
    }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<NandArray> nand;
    std::unique_ptr<Ftl> ftl;
};

TEST_F(FtlTest, FreshDriveIsUnmapped)
{
    for (std::uint64_t lba = 0; lba < 512; lba += 37)
        EXPECT_FALSE(ftl->isMapped(lba));
}

TEST_F(FtlTest, WriteMapsBlock)
{
    bool buffered = false;
    ftl->write(7, [&] { buffered = true; });
    sim->run();
    EXPECT_TRUE(buffered);
    EXPECT_TRUE(ftl->isMapped(7));
    EXPECT_FALSE(ftl->isMapped(8));
    EXPECT_EQ(ftl->stats().hostWrites, 1u);
}

TEST_F(FtlTest, OutOfRangeLbaPanics)
{
    EXPECT_THROW(ftl->isMapped(512), afa::sim::SimError);
    EXPECT_THROW(ftl->write(512, [] {}), afa::sim::SimError);
}

TEST_F(FtlTest, ReadMappedGoesToNand)
{
    ftl->write(3, [] {});
    sim->run();
    auto reads_before = nand->stats().reads;
    bool done = false;
    ftl->readMapped(3, [&] { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    EXPECT_EQ(nand->stats().reads, reads_before + 1);
    EXPECT_EQ(ftl->stats().hostReadsMapped, 1u);
}

TEST_F(FtlTest, ReadUnmappedPanics)
{
    EXPECT_THROW(ftl->readMapped(9, [] {}), afa::sim::SimError);
}

TEST_F(FtlTest, OverwriteInvalidatesOldSlot)
{
    ftl->write(5, [] {});
    ftl->write(5, [] {});
    sim->run();
    EXPECT_TRUE(ftl->isMapped(5));
    EXPECT_EQ(ftl->stats().hostWrites, 2u);
}

TEST_F(FtlTest, FullPagesProgramAutomatically)
{
    // 4 slots per 16 KiB page: 8 writes = 2 programmed pages.
    for (std::uint64_t lba = 0; lba < 8; ++lba)
        ftl->write(lba, [] {});
    sim->run();
    EXPECT_EQ(ftl->stats().programs, 2u);
    EXPECT_EQ(ftl->buffered(), 0u);
}

TEST_F(FtlTest, PartialPageStaysBufferedUntilThePageFills)
{
    ftl->write(0, [] {});
    ftl->write(1, [] {});
    sim->run();
    EXPECT_EQ(ftl->stats().programs, 0u);
    EXPECT_EQ(ftl->buffered(), 2u);
    // The page's last two slots complete it: one program drains it.
    ftl->write(2, [] {});
    ftl->write(3, [] {});
    sim->run();
    EXPECT_EQ(ftl->stats().programs, 1u);
    EXPECT_EQ(ftl->buffered(), 0u);
}

TEST_F(FtlTest, PageStreamStripesAcrossDies)
{
    // 16 writes = 4 full pages; with per-page die rotation each die
    // should receive exactly one program.
    for (std::uint64_t lba = 0; lba < 16; ++lba)
        ftl->write(lba, [] {});
    sim->run();
    EXPECT_EQ(ftl->stats().programs, 4u);
    // All four dies saw traffic: per-die busy horizons are non-zero.
    unsigned busy_dies = 0;
    for (unsigned ch = 0; ch < 2; ++ch)
        for (unsigned d = 0; d < 2; ++d)
            if (nand->dieFreeAt(ch, d) > 0)
                ++busy_dies;
    EXPECT_EQ(busy_dies, 4u);
}

TEST_F(FtlTest, BufferBackpressureDelaysWrites)
{
    // Capacity is 64 entries; issue 100 writes back to back. The
    // overflow writes must wait for programs to complete, which takes
    // simulated time (tProg ~ 1.3 ms).
    unsigned accepted = 0;
    for (std::uint64_t lba = 0; lba < 100; ++lba)
        ftl->write(lba % 512, [&] { ++accepted; });
    sim->run(afa::sim::usec(1));
    EXPECT_LT(accepted, 100u);
    sim->run();
    EXPECT_EQ(accepted, 100u);
}

TEST_F(FtlTest, FormatDropsEverything)
{
    for (std::uint64_t lba = 0; lba < 20; ++lba)
        ftl->write(lba, [] {});
    sim->run();
    ftl->format();
    for (std::uint64_t lba = 0; lba < 20; ++lba)
        EXPECT_FALSE(ftl->isMapped(lba));
    // Drive is usable again after format.
    ftl->write(3, [] {});
    sim->run();
    EXPECT_TRUE(ftl->isMapped(3));
}

TEST_F(FtlTest, PreconditionMapsFraction)
{
    ftl->precondition(0.5);
    unsigned mapped = 0;
    for (std::uint64_t lba = 0; lba < 512; ++lba)
        if (ftl->isMapped(lba))
            ++mapped;
    EXPECT_EQ(mapped, 256u);
    // Preconditioning is instant: no NAND programs.
    EXPECT_EQ(ftl->stats().programs, 0u);
    // And the preconditioned data is readable.
    bool done = false;
    ftl->readMapped(0, [&] { done = true; });
    sim->run();
    EXPECT_TRUE(done);
}

TEST_F(FtlTest, PreconditionFullDrive)
{
    ftl->precondition(1.0);
    for (std::uint64_t lba = 0; lba < 512; lba += 31)
        EXPECT_TRUE(ftl->isMapped(lba));
}

TEST_F(FtlTest, PreconditionBadFractionFatal)
{
    EXPECT_THROW(ftl->precondition(1.5), afa::sim::SimError);
    EXPECT_THROW(ftl->precondition(-0.1), afa::sim::SimError);
}

TEST_F(FtlTest, GcReclaimsSpaceUnderOverwrite)
{
    // Fill the logical space, then overwrite repeatedly: the free
    // pool shrinks until GC kicks in and erases emptied blocks.
    ftl->precondition(1.0);
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t lba = 0; lba < 512; ++lba)
            ftl->write(lba, [] {});
    sim->run();
    EXPECT_GT(ftl->stats().gcRuns, 0u);
    EXPECT_GT(ftl->stats().erases, 0u);
    EXPECT_GE(ftl->freeBlocks(), 4u);
    // Every logical block must still be mapped after GC churn.
    for (std::uint64_t lba = 0; lba < 512; ++lba)
        EXPECT_TRUE(ftl->isMapped(lba));
}

TEST_F(FtlTest, GcRelocatesValidData)
{
    // A nearly full drive with little over-provisioning and scattered
    // overwrites: no block ever becomes fully invalid, so every GC
    // victim still holds valid data and must relocate it.
    FtlParams p = smallFtl();
    p.logicalBlocks = 900;   // of 1024 physical slots
    Ftl tight(*sim, "ftl.tight", *nand, p);
    tight.precondition(1.0);
    for (std::uint64_t i = 0; i < 1200; ++i)
        tight.write((i * 389) % 900, [] {});
    sim->run();
    EXPECT_GT(tight.stats().gcRuns, 0u);
    EXPECT_GT(tight.stats().gcSlotWrites, 0u);
    EXPECT_GT(tight.stats().gcPageReads, 0u);
    // Every logical block remains mapped and readable after GC churn.
    for (std::uint64_t lba = 0; lba < 900; lba += 101) {
        EXPECT_TRUE(tight.isMapped(lba));
        bool done = false;
        tight.readMapped(lba, [&] { done = true; });
        sim->run();
        EXPECT_TRUE(done);
    }
}

TEST_F(FtlTest, TooSmallNandIsFatal)
{
    FtlParams p = smallFtl();
    p.logicalBlocks = 100000; // exceeds 1024 phys slots
    EXPECT_THROW(Ftl(*sim, "ftl2", *nand, p), afa::sim::SimError);
}

/** One map-table leaf: 256 four-byte entries. */
constexpr std::size_t kLeafBytes = 256 * sizeof(std::uint32_t);

TEST_F(FtlTest, FreshDriveHoldsNoTableMemory)
{
    EXPECT_EQ(ftl->tableBytes(), 0u);
    // Reads of a FOB drive allocate nothing either.
    EXPECT_FALSE(ftl->isMapped(511));
    EXPECT_EQ(ftl->tableBytes(), 0u);
}

TEST_F(FtlTest, FirstWriteAllocatesOneLeafPerTable)
{
    ftl->write(300, [] {});
    sim->run();
    EXPECT_EQ(ftl->tableBytes(), 2 * kLeafBytes);
    // Further writes into the same map leaf, landing in the same
    // reverse leaf, allocate nothing more.
    ftl->write(301, [] {});
    ftl->write(300, [] {});
    sim->run();
    EXPECT_EQ(ftl->tableBytes(), 2 * kLeafBytes);
}

TEST_F(FtlTest, FormatReleasesAllLeaves)
{
    for (std::uint64_t lba = 0; lba < 512; lba += 7)
        ftl->write(lba, [] {});
    sim->run();
    EXPECT_GT(ftl->tableBytes(), 2 * kLeafBytes);
    ftl->format();
    EXPECT_EQ(ftl->tableBytes(), 0u);
}

TEST_F(FtlTest, PreconditionAllocatesOnlyFilledLeaves)
{
    // Three map leaves; half the drive fills leaves 0 and 1 of them.
    FtlParams p = smallFtl();
    p.logicalBlocks = 3 * 256;
    Ftl three(*sim, "ftl.three", *nand, p);
    three.precondition(0.5);
    EXPECT_TRUE(three.isMapped(383));
    EXPECT_FALSE(three.isMapped(384));
    // Each die's 16 blocks of 16 slots are one 256-entry reverse
    // leaf, and the striped fill touches all 4 dies.
    EXPECT_EQ(three.tableBytes(), (2 + 4) * kLeafBytes);
}

TEST_F(FtlTest, SlotsBeyond32BitsAreFatal)
{
    // 32 dies x 131072 blocks x 256 pages x 4 slots = 2^32 slots: one
    // more than a 32-bit entry can index below its kNone sentinel.
    NandParams big;
    big.blocksPerDie = 131072;
    NandArray big_nand(*sim, "nand.big", big);
    EXPECT_THROW(Ftl(*sim, "ftl.big", big_nand, smallFtl()),
                 afa::sim::SimError);
    // One block fewer per die fits.
    big.blocksPerDie = 131071;
    NandArray fits_nand(*sim, "nand.fits", big);
    Ftl fits(*sim, "ftl.fits", fits_nand, smallFtl());
    EXPECT_EQ(fits.tableBytes(), 0u);
    // So does the production geometry (33,554,432 slots).
    NandArray prod_nand(*sim, "nand.prod", NandParams{});
    Ftl prod(*sim, "ftl.prod", prod_nand, smallFtl());
    EXPECT_EQ(prod.tableBytes(), 0u);
    // 2^32 logical blocks are fatal: no NAND whose slots fit 32-bit
    // entries holds them.
    FtlParams huge = smallFtl();
    huge.logicalBlocks = std::uint64_t(1) << 32;
    EXPECT_THROW(Ftl(*sim, "ftl.huge", *nand, huge),
                 afa::sim::SimError);
}

} // namespace
