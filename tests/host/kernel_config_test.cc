/**
 * @file
 * Kernel config tests: cpu-list formatting and the paper's boot
 * command line.
 */

#include <gtest/gtest.h>

#include "host/kernel_config.hh"
#include "host/scheduler.hh"
#include "sim/logging.hh"

using namespace afa::host;

namespace {

/** The paper's isolcpus list, 4-19,24-39. */
CpuSet
paperIsolcpus()
{
    CpuSet cpus;
    for (unsigned c = 4; c <= 19; ++c)
        cpus.insert(c);
    for (unsigned c = 24; c <= 39; ++c)
        cpus.insert(c);
    return cpus;
}

TEST(CpuListTest, FormatRoundTrip)
{
    EXPECT_EQ(formatCpuList(paperIsolcpus()), "4-19,24-39");
    EXPECT_EQ(formatCpuList(CpuSet{1}), "1");
    EXPECT_EQ(formatCpuList(CpuSet{1, 3, 5}), "1,3,5");
    EXPECT_EQ(formatCpuList(CpuSet{}), "");
}

TEST(KernelConfigTest, DefaultBootLineIsEmpty)
{
    KernelConfig cfg;
    EXPECT_EQ(cfg.bootCommandLine(), "");
}

TEST(KernelConfigTest, PaperBootLine)
{
    // The exact Section IV-C configuration.
    KernelConfig cfg;
    cfg.isolcpus = paperIsolcpus();
    cfg.nohzFull = cfg.isolcpus;
    cfg.rcuNocbs = cfg.isolcpus;
    cfg.cstate.maxCstate = 1;
    cfg.cstate.idlePoll = true;
    EXPECT_EQ(cfg.bootCommandLine(),
              "isolcpus=4-19,24-39 nohz_full=4-19,24-39 "
              "rcu_nocbs=4-19,24-39 processor.max_cstate=1 idle=poll");
}

TEST(MaskTest, MaskFromSet)
{
    CpuMask m = maskFromSet(CpuSet{0, 3, 63});
    EXPECT_EQ(m, (CpuMask(1) << 0) | (CpuMask(1) << 3) |
                  (CpuMask(1) << 63));
    EXPECT_EQ(maskFromSet(CpuSet{}), 0u);
}

TEST(MaskTest, MaskBeyond64IsFatal)
{
    afa::sim::setThrowOnError(true);
    EXPECT_THROW(maskFromSet(CpuSet{64}), afa::sim::SimError);
    afa::sim::setThrowOnError(false);
}

} // namespace
