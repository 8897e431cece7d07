/**
 * @file
 * SMART engine tests: periodicity, stall horizons, save cadence, and
 * the disabled (experimental firmware) mode.
 */

#include <gtest/gtest.h>

#include "nvme/smart.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using afa::nvme::SmartConfig;
using afa::nvme::SmartEngine;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

TEST(SmartEngineTest, DisabledEngineNeverStalls)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.enabled = false;
    cfg.period = msec(1);
    SmartEngine smart(sim, "smart", cfg);
    smart.start();
    sim.run(sec(1));
    EXPECT_EQ(smart.collections(), 0u);
    EXPECT_EQ(smart.stalledUntil(), 0u);
}

TEST(SmartEngineTest, ZeroPeriodIsFatal)
{
    afa::sim::setThrowOnError(true);
    Simulator sim(1);
    SmartConfig cfg;
    cfg.period = 0;
    SmartEngine smart(sim, "smart", cfg);
    EXPECT_THROW(smart.start(), afa::sim::SimError);
    // Disabled SMART never collects, so its period is not read.
    cfg.enabled = false;
    SmartEngine off(sim, "smart-off", cfg);
    EXPECT_NO_THROW(off.start());
    afa::sim::setThrowOnError(false);
}

TEST(SmartEngineTest, CollectsOncePerPeriod)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.period = msec(10);
    SmartEngine smart(sim, "smart", cfg);
    smart.start();
    sim.run(msec(105));
    // Phase offset is random in [0, period): expect 10 +/- 1.
    EXPECT_GE(smart.collections(), 9u);
    EXPECT_LE(smart.collections(), 11u);
}

TEST(SmartEngineTest, SaveCadence)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.period = msec(1);
    cfg.saveEvery = 4;
    SmartEngine smart(sim, "smart", cfg);
    smart.start();
    sim.run(msec(40));
    EXPECT_GT(smart.collections(), 30u);
    EXPECT_NEAR(static_cast<double>(smart.saves()),
                smart.collections() / 4.0, 2.0);
}

TEST(SmartEngineTest, SaveEveryZeroMeansNeverSave)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.period = msec(1);
    cfg.saveEvery = 0;
    SmartEngine smart(sim, "smart", cfg);
    smart.start();
    sim.run(msec(20));
    EXPECT_GT(smart.collections(), 10u);
    EXPECT_EQ(smart.saves(), 0u);
}

TEST(SmartEngineTest, StallHorizonRaisedDuringCollection)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.period = msec(5);
    cfg.updateDuration = usec(500);
    cfg.durationSigma = 0.0;
    cfg.saveEvery = 0;
    SmartEngine smart(sim, "smart", cfg);
    smart.start();
    sim.run(msec(30));
    // After several collections the horizon is in the past but > 0.
    EXPECT_GT(smart.stalledUntil(), 0u);
    EXPECT_GT(smart.collections(), 3u);
}

TEST(SmartEngineTest, AdHocStallExtendsHorizon)
{
    Simulator sim(1);
    SmartConfig cfg;
    cfg.enabled = false;
    SmartEngine smart(sim, "smart", cfg);
    smart.stallFor(usec(100));
    EXPECT_EQ(smart.stalledUntil(), usec(100));
    // A shorter stall never shrinks the horizon.
    smart.stallFor(usec(10));
    EXPECT_EQ(smart.stalledUntil(), usec(100));
}

TEST(SmartEngineTest, PhaseOffsetsDifferAcrossEngines)
{
    Simulator sim(7);
    SmartConfig cfg;
    cfg.period = sec(30);
    SmartEngine a(sim, "smart.a", cfg);
    SmartEngine b(sim, "smart.b", cfg);
    a.start();
    b.start();
    // Track when each first collects by polling collections().
    Tick first_a = 0, first_b = 0;
    while (sim.pendingEvents() && (first_a == 0 || first_b == 0)) {
        sim.runSteps(1);
        if (first_a == 0 && a.collections() > 0)
            first_a = sim.now();
        if (first_b == 0 && b.collections() > 0)
            first_b = sim.now();
    }
    EXPECT_NE(first_a, first_b);
}

} // namespace
