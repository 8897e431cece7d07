/**
 * @file
 * Property test: the FTL against a trivial reference model.
 *
 * A reference std::map tracks which LBAs have been written; after any
 * interleaving of writes, overwrites, flushes, formats and
 * preconditions, the FTL must agree on mapped-ness, every mapped LBA
 * must be readable, and the block accounting (valid slots vs mapped
 * LBAs) must balance. Parameterised over several FTL geometries and
 * operation mixes.
 */

#include <gtest/gtest.h>

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
    double overProvision;
    double formatWeight; ///< relative chance of a format op
};

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
    fp.overProvision = gc.overProvision;
    fp.writeBufferEntries = 32;
    Ftl ftl(sim, "ftl", nand, fp);

    std::map<std::uint64_t, bool> reference;
    Rng rng(99);

    for (int step = 0; step < 400; ++step) {
        double dice = rng.uniform();
        if (dice < 0.70) {
            // Write (often an overwrite).
            std::uint64_t lba =
                rng.uniformInt(0, gc.logicalBlocks - 1);
            ftl.write(lba, nullptr);
            reference[lba] = true;
        } else if (dice < 0.80) {
            // Flush and drain.
            bool flushed = false;
            ftl.flush([&] { flushed = true; });
            sim.run();
            ASSERT_TRUE(flushed);
        } else if (dice < 0.80 + gc.formatWeight) {
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

    // Buffer fully drains on a final flush.
    bool flushed = false;
    ftl.flush([&] { flushed = true; });
    sim.run();
    EXPECT_TRUE(flushed);
    EXPECT_EQ(ftl.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FtlPropertyTest,
    ::testing::Values(
        GeometryCase{"small", 2, 2, 4, 16, 512, 1.5, 0.05},
        GeometryCase{"tight_op", 2, 2, 4, 16, 900, 1.05, 0.05},
        GeometryCase{"one_die", 1, 1, 8, 64, 1024, 1.5, 0.05},
        GeometryCase{"format_heavy", 2, 2, 4, 16, 512, 1.5, 0.15},
        GeometryCase{"wide", 4, 4, 8, 8, 3072, 1.3, 0.02}),
    [](const ::testing::TestParamInfo<GeometryCase> &info) {
        return info.param.name;
    });

} // namespace
