/**
 * @file
 * Tuning-ladder tests: each profile applies exactly its cumulative
 * set of changes, and the isolcpus step reproduces the paper's boot
 * command line verbatim.
 */

#include <gtest/gtest.h>

#include "core/tuning.hh"
#include "sim/logging.hh"

using namespace afa::core;
using afa::host::CpuTopology;

namespace {

class TuningTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Geometry geo{CpuTopology{}, 64, 4};
};

TEST_F(TuningTest, DefaultIsStock)
{
    auto cfg = TuningConfig::forProfile(TuningProfile::Default, geo);
    EXPECT_EQ(cfg.fioRtPriority, 0);
    EXPECT_TRUE(cfg.kernel.isolcpus.empty());
    EXPECT_TRUE(cfg.kernel.irq.irqBalanceEnabled);
    EXPECT_FALSE(cfg.pinIrqAffinity);
    EXPECT_TRUE(cfg.firmware.smart.enabled);
    EXPECT_FALSE(cfg.kernel.cstate.idlePoll);
    EXPECT_EQ(cfg.kernel.cstate.maxCstate, 6u);
}

TEST_F(TuningTest, ChrtAddsOnlyRtPriority)
{
    auto cfg = TuningConfig::forProfile(TuningProfile::Chrt, geo);
    EXPECT_EQ(cfg.fioRtPriority, 99);
    EXPECT_TRUE(cfg.kernel.isolcpus.empty());
    EXPECT_FALSE(cfg.pinIrqAffinity);
    EXPECT_TRUE(cfg.firmware.smart.enabled);
}

TEST_F(TuningTest, IsolcpusAddsBootOptions)
{
    auto cfg = TuningConfig::forProfile(TuningProfile::Isolcpus, geo);
    EXPECT_EQ(cfg.fioRtPriority, 99); // cumulative
    EXPECT_EQ(cfg.kernel.bootCommandLine(),
              "isolcpus=4-19,24-39 nohz_full=4-19,24-39 "
              "rcu_nocbs=4-19,24-39 processor.max_cstate=1 idle=poll");
    EXPECT_FALSE(cfg.pinIrqAffinity);
    EXPECT_TRUE(cfg.kernel.irq.irqBalanceEnabled);
    EXPECT_TRUE(cfg.firmware.smart.enabled);
}

TEST_F(TuningTest, IrqAffinityPinsAndStopsBalancer)
{
    auto cfg =
        TuningConfig::forProfile(TuningProfile::IrqAffinity, geo);
    EXPECT_EQ(cfg.fioRtPriority, 99);
    EXPECT_FALSE(cfg.kernel.isolcpus.empty());
    EXPECT_TRUE(cfg.pinIrqAffinity);
    EXPECT_FALSE(cfg.kernel.irq.irqBalanceEnabled);
    EXPECT_TRUE(cfg.firmware.smart.enabled);
}

TEST_F(TuningTest, ExpFirmwareDisablesSmartOnly)
{
    auto cfg =
        TuningConfig::forProfile(TuningProfile::ExpFirmware, geo);
    EXPECT_FALSE(cfg.firmware.smart.enabled);
    // Everything below it still applies.
    EXPECT_TRUE(cfg.pinIrqAffinity);
    EXPECT_EQ(cfg.fioRtPriority, 99);
    EXPECT_FALSE(cfg.kernel.isolcpus.empty());
}

} // namespace
