/**
 * @file
 * AfaSystem assembly tests: component counts, driver round trips
 * through fabric + controller + IRQ, and profile wiring.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/afa_system.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::core;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::usec;

namespace {

class AfaSystemTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    build(unsigned ssds, bool pin_irq = false)
    {
        sim = std::make_unique<Simulator>(55);
        AfaSystemParams params;
        params.ssds = ssds;
        params.pinIrqAffinity = pin_irq;
        params.background = afa::host::BackgroundParams::none();
        params.firmware.smart.enabled = false;
        system = std::make_unique<AfaSystem>(*sim, params);
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<AfaSystem> system;
};

TEST_F(AfaSystemTest, PaperScaleAssembly)
{
    build(64);
    EXPECT_EQ(system->ssds(), 64u);
    // 64 devices x 40 logical CPUs = 2,560 MSI-X vectors.
    EXPECT_EQ(system->irq().vectors(), 2560u);
    EXPECT_EQ(system->scheduler().topology().logicalCpus(), 40u);
    // host + root + 6 leaves + 16 carriers + 64 SSDs.
    EXPECT_EQ(system->fabric().nodes(), 88u);
    // FOB drives hold no mapping-table memory until written.
    for (unsigned d = 0; d < 64; ++d)
        EXPECT_EQ(system->ssd(d).ftl().tableBytes(), 0u) << "ssd " << d;
}

TEST_F(AfaSystemTest, DriverRoundTrip)
{
    build(4);
    system->start();
    unsigned handler_cpu = 999;
    Tick completed_at = 0;
    afa::workload::IoRequest req;
    req.device = 2;
    req.op = afa::nvme::Op::Read;
    req.lba = 100;
    req.bytes = 4096;
    system->ioEngine().submit(
        14, req, [&](const afa::workload::IoResult &result) {
            EXPECT_TRUE(result.ok());
            handler_cpu = result.cpu;
            completed_at = sim->now();
        });
    EXPECT_EQ(system->outstandingCommands(), 1u);
    sim->run(msec(5));
    EXPECT_EQ(system->outstandingCommands(), 0u);
    // Vector default spread: handler on the submitting CPU.
    EXPECT_EQ(handler_cpu, 14u);
    // End-to-end device latency: ~20-30 us through the fabric.
    EXPECT_GT(completed_at, usec(15));
    EXPECT_LT(completed_at, usec(45));
    EXPECT_EQ(system->ssd(2).stats().readsCompleted, 1u);
}

TEST_F(AfaSystemTest, DeviceBlocksExposed)
{
    build(2);
    EXPECT_EQ(system->ioEngine().deviceBlocks(0), 262144u);
}

TEST_F(AfaSystemTest, PinnedIrqAffinityApplies)
{
    build(2, true);
    for (unsigned q = 0; q < 40; ++q)
        EXPECT_EQ(system->irq().effectiveCpu(1, q), q);
    // The default spread is the pinning; irqbalance must stay off.
    EXPECT_FALSE(system->scheduler().config().irq.irqBalanceEnabled);
}

TEST_F(AfaSystemTest, WritesReachTheFtl)
{
    build(1);
    system->start();
    afa::workload::IoRequest req;
    req.device = 0;
    req.op = afa::nvme::Op::Write;
    req.lba = 42;
    req.bytes = 4096;
    bool done = false;
    system->ioEngine().submit(
        4, req,
        [&](const afa::workload::IoResult &) { done = true; });
    sim->run(msec(5));
    EXPECT_TRUE(done);
    EXPECT_TRUE(system->ssd(0).ftl().isMapped(42));
    // One 256-entry leaf of 32-bit entries in each mapping table.
    EXPECT_EQ(system->ssd(0).ftl().tableBytes(),
              2 * 256 * sizeof(std::uint32_t));
}

TEST_F(AfaSystemTest, ParallelSubmissionsToManySsds)
{
    build(8);
    system->start();
    unsigned completions = 0;
    for (unsigned d = 0; d < 8; ++d) {
        afa::workload::IoRequest req;
        req.device = d;
        req.lba = d;
        system->ioEngine().submit(
            4 + d, req,
            [&](const afa::workload::IoResult &) { ++completions; });
    }
    sim->run(msec(5));
    EXPECT_EQ(completions, 8u);
}

// One SSD at QD1 over a FOB drive, telemetry off: no two packets ever
// want one link, so every packet walks the fabric fast path, and a
// completion enters the fabric at its device tick. Nothing in the run
// needs an engine plumbing event.
TEST_F(AfaSystemTest, UncontendedQd1RunSchedulesNoPlumbing)
{
    build(1);
    system->start();
    constexpr unsigned kIos = 2000;
    unsigned completed = 0;
    std::function<void()> submit_next = [&] {
        afa::workload::IoRequest req;
        req.device = 0;
        req.lba = completed * 7919u % 262144u;
        req.bytes = 4096;
        system->ioEngine().submit(
            4, req, [&](const afa::workload::IoResult &result) {
                EXPECT_TRUE(result.ok());
                if (++completed < kIos)
                    submit_next();
            });
    };
    submit_next();
    sim->run(msec(500));
    EXPECT_EQ(completed, kIos);
    const afa::pcie::FabricStats &fabric = system->fabric().stats();
    EXPECT_EQ(fabric.packets, 2u * kIos);
    EXPECT_EQ(fabric.fastPathPackets, fabric.packets);
    EXPECT_EQ(sim->plumbingEvents(), 0u);
}

TEST_F(AfaSystemTest, ZeroSsdsIsFatal)
{
    sim = std::make_unique<Simulator>(1);
    AfaSystemParams params;
    params.ssds = 0;
    EXPECT_THROW(AfaSystem(*sim, params), afa::sim::SimError);
}

TEST_F(AfaSystemTest, BadDeviceIndexPanics)
{
    build(2);
    EXPECT_THROW(system->ssd(2), afa::sim::SimError);
    afa::workload::IoRequest req;
    req.device = 5;
    EXPECT_THROW(
        system->ioEngine().submit(
            4, req, [](const afa::workload::IoResult &) {}),
        afa::sim::SimError);
}

} // namespace
