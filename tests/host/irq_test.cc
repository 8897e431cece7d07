/**
 * @file
 * IRQ subsystem tests: vector bookkeeping (2,560 handlers), the
 * default queue-to-CPU spread, irqbalance misplacement, a stopped
 * balancer keeping that spread, and the delivery cost model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "host/irq.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::host;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

class IrqTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    build(unsigned devices, KernelConfig cfg = {})
    {
        cfg.sched.rcuCallbackInterval = sec(10000);
        sim = std::make_unique<Simulator>(33);
        sched = std::make_unique<Scheduler>(*sim, "sched",
                                            CpuTopology{}, cfg);
        irq = std::make_unique<IrqSubsystem>(*sim, "irq", *sched,
                                             devices);
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Scheduler> sched;
    std::unique_ptr<IrqSubsystem> irq;
};

TEST_F(IrqTest, PaperVectorCount)
{
    build(64);
    // 64 SSDs x 40 logical CPUs = 2,560 IRQ handlers (Section III-C).
    EXPECT_EQ(irq->vectors(), 2560u);
}

TEST_F(IrqTest, DriverDefaultSpreadMapsQueueToCpu)
{
    build(4);
    for (unsigned d = 0; d < 4; ++d)
        for (unsigned q = 0; q < 40; ++q)
            EXPECT_EQ(irq->effectiveCpu(d, q), q);
}

TEST_F(IrqTest, RaiseRunsHandlerOnAffinityCpu)
{
    build(2);
    unsigned handler_cpu = 99;
    Tick when = 0;
    irq->raise(0, 4, [&](unsigned cpu) {
        handler_cpu = cpu;
        when = sim->now();
    });
    sim->run();
    EXPECT_EQ(handler_cpu, 4u);
    const auto &cfg = sched->config().irq;
    // cpu4 is on socket 0; the AFA uplink is socket 1: pays crossing.
    EXPECT_EQ(when, cfg.hardirqCost + cfg.softirqCost +
                        cfg.crossSocketPenalty);
    EXPECT_EQ(irq->vectorCount(0, 4), 1u);
    EXPECT_EQ(irq->stats().delivered, 1u);
    EXPECT_EQ(irq->stats().crossSocket, 1u);
}

TEST_F(IrqTest, UplinkSocketDeliveryHasNoCrossing)
{
    build(2);
    Tick when = 0;
    irq->raise(0, 14, [&](unsigned) { when = sim->now(); });
    sim->run();
    const auto &cfg = sched->config().irq;
    EXPECT_EQ(when, cfg.hardirqCost + cfg.softirqCost);
    EXPECT_EQ(irq->stats().crossSocket, 0u);
}

TEST_F(IrqTest, BalancerMovesBusyVectorsWithinUplinkSocket)
{
    build(4);
    irq->start();
    // Make vector (0, 4) busy across balancer scans.
    for (int i = 0; i < 50; ++i)
        sim->scheduleAt(msec(i * 10), [&] {
            irq->raise(0, 4, [](unsigned) {});
        });
    sim->run(sec(21));
    EXPECT_GT(irq->stats().rebalances, 1u);
    EXPECT_GT(irq->stats().vectorMoves, 0u);
    // The moved handler lives on the uplink socket (cpu 10-19/30-39),
    // not on the submitting cpu4 -- the paper's LTTng observation.
    unsigned cpu = irq->effectiveCpu(0, 4);
    EXPECT_NE(cpu, 4u);
    EXPECT_EQ(sched->topology().socketOf(cpu), 1u);
}

TEST_F(IrqTest, BalancerIgnoresIdleVectors)
{
    build(4);
    irq->start();
    sim->run(sec(25));
    // No traffic: every vector keeps the driver-default mapping.
    for (unsigned d = 0; d < 4; ++d)
        for (unsigned q = 0; q < 40; ++q)
            EXPECT_EQ(irq->effectiveCpu(d, q), q);
    EXPECT_EQ(irq->stats().vectorMoves, 0u);
}

TEST_F(IrqTest, DisabledBalancerNeverScans)
{
    // The paper's Section IV-D pinning: with irqbalance off, a busy
    // vector keeps the default queue-to-CPU spread.
    KernelConfig cfg;
    cfg.irq.irqBalanceEnabled = false;
    build(4, cfg);
    irq->start();
    for (int i = 0; i < 50; ++i)
        sim->scheduleAt(msec(i * 10), [&] {
            irq->raise(0, 4, [](unsigned) {});
        });
    sim->run(sec(25));
    EXPECT_EQ(irq->stats().rebalances, 0u);
    EXPECT_EQ(irq->effectiveCpu(0, 4), 4u);
    EXPECT_EQ(irq->stats().vectorMoves, 0u);
    EXPECT_EQ(irq->stats().remoteDeliveries, 0u);
}

TEST_F(IrqTest, ZeroBalanceIntervalIsFatal)
{
    KernelConfig cfg;
    cfg.irq.irqBalanceInterval = 0;
    build(4, cfg);
    EXPECT_THROW(irq->start(), afa::sim::SimError);
    // With irqbalance off its interval is not read.
    cfg.irq.irqBalanceEnabled = false;
    build(4, cfg);
    EXPECT_NO_THROW(irq->start());
}

TEST_F(IrqTest, BadVectorPanics)
{
    build(2);
    EXPECT_THROW(irq->raise(2, 0, [](unsigned) {}),
                 afa::sim::SimError);
    EXPECT_THROW(irq->raise(0, 40, [](unsigned) {}),
                 afa::sim::SimError);
}

TEST_F(IrqTest, RemoteDeliveryCounted)
{
    // irqbalance moves the busy vector (0, 4) off cpu4. Its handler
    // then runs on the vector's new CPU, and counts as remote; a
    // vector still on its queue's CPU does not.
    build(4);
    irq->start();
    for (int i = 0; i < 50; ++i)
        sim->scheduleAt(msec(i * 10), [&] {
            irq->raise(0, 4, [](unsigned) {});
        });
    sim->run(sec(1));
    const unsigned moved = irq->effectiveCpu(0, 4);
    ASSERT_NE(moved, 4u);
    const std::uint64_t remote = irq->stats().remoteDeliveries;
    unsigned handler_cpu = 99;
    irq->raise(0, 4, [&](unsigned cpu) { handler_cpu = cpu; });
    irq->raise(0, 14, [](unsigned) {});
    sim->run(sec(1) + msec(1));
    EXPECT_EQ(handler_cpu, moved);
    EXPECT_EQ(irq->stats().remoteDeliveries, remote + 1);
}

} // namespace
