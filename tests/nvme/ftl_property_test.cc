/**
 * @file
 * Property test: the FTL against a trivial reference model.
 *
 * A reference std::map tracks which LBAs have been written; after any
 * interleaving of writes, overwrites, reads, formats and
 * preconditions, the FTL must agree on mapped-ness, every mapped LBA
 * must be readable, and the block accounting (valid slots vs mapped
 * LBAs) must balance. Parameterised over several FTL geometries and
 * operation mixes, including one whose mapping tables span many
 * 256-entry leaves, end in a partial leaf, and see writes aimed at
 * leaf edges and garbage collection that walks the reverse map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>

#include "nand/nand_array.hh"
#include "nvme/ftl.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using afa::nand::NandArray;
using afa::nand::NandParams;
using afa::nvme::Ftl;
using afa::nvme::FtlParams;
using afa::sim::Rng;
using afa::sim::Simulator;

namespace {

struct GeometryCase
{
    const char *name;
    unsigned channels;
    unsigned dies;
    unsigned pagesPerBlock;
    unsigned blocksPerDie;
    std::uint64_t logicalBlocks;
    double formatWeight;   ///< relative chance of a format op
    double preconditioned; ///< fraction of the drive written at start
    double edgeShare;      ///< share of writes aimed at leaf edges
};

/** Entries per mapping-table leaf in the FTL. */
constexpr std::uint64_t kLeafEntries = 256;

/**
 * Print a case by its name. Without this, gtest prints the raw bytes
 * of the case into the listed test name, and those bytes hold a
 * pointer that moves with the load address.
 */
void
PrintTo(const GeometryCase &c, std::ostream *os)
{
    *os << c.name;
}

class FtlPropertyTest : public ::testing::TestWithParam<GeometryCase>
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_P(FtlPropertyTest, AgreesWithReferenceModel)
{
    const GeometryCase &gc = GetParam();
    Simulator sim(afa::sim::hashTag(gc.name));
    NandParams np;
    np.channels = gc.channels;
    np.diesPerChannel = gc.dies;
    np.pagesPerBlock = gc.pagesPerBlock;
    np.blocksPerDie = gc.blocksPerDie;
    NandArray nand(sim, "nand", np);
    FtlParams fp;
    fp.logicalBlocks = gc.logicalBlocks;
    fp.writeBufferEntries = 32;
    Ftl ftl(sim, "ftl", nand, fp);

    std::map<std::uint64_t, bool> reference;
    Rng rng(99);

    if (gc.preconditioned > 0.0) {
        ftl.precondition(gc.preconditioned);
        for (std::uint64_t lba = 0; lba < gc.logicalBlocks; ++lba)
            if (ftl.isMapped(lba))
                reference[lba] = true;
    }
    const std::uint64_t leaves =
        (gc.logicalBlocks + kLeafEntries - 1) / kLeafEntries;

    for (int step = 0; step < 400; ++step) {
        double dice = rng.uniform();
        if (dice < 0.70) {
            // Write (often an overwrite), a share of them to the
            // first or last entry of a random map leaf.
            std::uint64_t lba =
                rng.uniformInt(0, gc.logicalBlocks - 1);
            if (gc.edgeShare > 0.0 && rng.chance(gc.edgeShare)) {
                const std::uint64_t first =
                    rng.uniformInt(0, leaves - 1) * kLeafEntries;
                lba = rng.chance(0.5)
                    ? first
                    : std::min(first + kLeafEntries, gc.logicalBlocks) -
                        1;
            }
            ftl.write(lba, nullptr);
            reference[lba] = true;
        } else if (dice < 0.70 + gc.formatWeight) {
            sim.run(); // settle outstanding NAND work first
            ftl.format();
            reference.clear();
        } else {
            // Read something mapped, if anything is.
            if (!reference.empty()) {
                auto it = reference.lower_bound(
                    rng.uniformInt(0, gc.logicalBlocks - 1));
                if (it == reference.end())
                    it = reference.begin();
                bool done = false;
                ftl.readMapped(it->first, [&] { done = true; });
                sim.run();
                ASSERT_TRUE(done);
            }
        }
        // Let queued work make progress occasionally.
        if (step % 16 == 0)
            sim.run();
    }
    sim.run();

    // Mapped-ness agrees everywhere.
    for (std::uint64_t lba = 0; lba < gc.logicalBlocks; ++lba)
        ASSERT_EQ(ftl.isMapped(lba), reference.count(lba) != 0)
            << "lba " << lba;

    // Every mapped LBA is readable after the churn.
    unsigned checked = 0;
    for (const auto &[lba, mapped] : reference) {
        (void)mapped;
        bool done = false;
        ftl.readMapped(lba, [&] { done = true; });
        sim.run();
        ASSERT_TRUE(done);
        if (++checked >= 64)
            break;
    }

    // An aged start must have made the collector walk the reverse map.
    if (gc.preconditioned > 0.0) {
        EXPECT_GT(ftl.stats().gcRuns, 0u);
        EXPECT_GT(ftl.stats().gcSlotWrites, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FtlPropertyTest,
    ::testing::Values(
        GeometryCase{"small", 2, 2, 4, 16, 512, 0.05, 0.0, 0.0},
        // 900 logical blocks of 1,024 physical slots.
        GeometryCase{"tight_op", 2, 2, 4, 16, 900, 0.05, 0.0, 0.0},
        GeometryCase{"one_die", 1, 1, 8, 64, 1024, 0.05, 0.0, 0.0},
        GeometryCase{"format_heavy", 2, 2, 4, 16, 512, 0.15, 0.0, 0.0},
        GeometryCase{"wide", 4, 4, 8, 8, 3072, 0.02, 0.0, 0.0},
        // 8 full map leaves plus a 37-entry partial one, and 9.5
        // reverse leaves, on an aged drive with 14% spare so GC
        // relocates across reverse leaves.
        GeometryCase{"leaf_edges", 2, 2, 8, 19, 8 * 256 + 37, 0.0, 1.0,
                     0.3}),
    [](const ::testing::TestParamInfo<GeometryCase> &info) {
        return info.param.name;
    });

} // namespace
