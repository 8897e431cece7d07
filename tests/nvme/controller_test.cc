/**
 * @file
 * Controller tests: FOB fast path latency, SMART stalls, experimental
 * firmware, command pipeline serialisation, writes, and error
 * handling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "obs/span_log.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::nvme;
using afa::nand::NandArray;
using afa::nand::NandParams;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::usec;

namespace {

NandParams
testNand()
{
    NandParams p;
    p.channels = 4;
    p.diesPerChannel = 4;
    p.pagesPerBlock = 16;
    p.blocksPerDie = 64;
    return p;
}

FtlParams
testFtl()
{
    FtlParams p;
    p.logicalBlocks = 8192;
    return p;
}

/** Harness: a controller with a fixed-delay loopback transport. */
class ControllerTest : public ::testing::Test
{
  protected:
    /**
     * Default test firmware: SMART off so unbounded sim->run() calls
     * terminate (the periodic SMART schedule never drains the queue).
     * Tests exercising SMART configure it explicitly and use bounded
     * runs.
     */
    static FirmwareConfig
    quietFirmware()
    {
        FirmwareConfig fw;
        fw.smart.enabled = false;
        return fw;
    }

    void SetUp() override
    {
        afa::sim::setThrowOnError(true);
        rebuild(quietFirmware());
    }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    rebuild(const FirmwareConfig &fw)
    {
        completions.clear();
        completionTimes.clear();
        sim = std::make_unique<Simulator>(11);
        nand = std::make_unique<NandArray>(*sim, "nand", testNand());
        ctrl = std::make_unique<Controller>(*sim, "nvme0", fw, *nand,
                                            testFtl());
        ctrl->setTransport([this](std::uint32_t, std::uint64_t,
                                  const NvmeCompletion &c) {
            sim->scheduleAfter(transportDelay, [this, c] {
                completions.push_back(c);
                completionTimes.push_back(sim->now());
            });
        });
        ctrl->start();
    }

    /** Submit a command and run until it completes; returns latency. */
    Tick
    roundTrip(const NvmeCommand &cmd)
    {
        Tick begin = sim->now();
        std::size_t before = completions.size();
        ctrl->submit(cmd);
        while (completions.size() == before) {
            if (sim->pendingEvents() == 0)
                ADD_FAILURE() << "command never completed";
            if (sim->runSteps(1) == 0)
                break;
        }
        return sim->now() - begin;
    }

    Tick transportDelay = usec(2);
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<NandArray> nand;
    std::unique_ptr<Controller> ctrl;
    std::vector<NvmeCompletion> completions;
    std::vector<Tick> completionTimes;
};

TEST_F(ControllerTest, FobReadLatencyNearSpec)
{
    // FOB fast path: proc (6 us) + media (~10 us) + xfer (~2.4 us) +
    // transport (2 us) ~ 20 us device-side.
    Tick lat = roundTrip(NvmeCommand{Op::Read, 100, 4096, 0, 1});
    EXPECT_GT(lat, usec(14));
    EXPECT_LT(lat, usec(30));
    EXPECT_EQ(completions[0].cmdId, 1u);
    EXPECT_EQ(completions[0].status, Status::Success);
    EXPECT_EQ(ctrl->stats().readsCompleted, 1u);
}

TEST_F(ControllerTest, FobReadsDoNotTouchNand)
{
    roundTrip(NvmeCommand{Op::Read, 0, 4096, 0, 1});
    roundTrip(NvmeCommand{Op::Read, 4000, 4096, 0, 2});
    EXPECT_EQ(nand->stats().reads, 0u);
}

TEST_F(ControllerTest, MappedReadGoesThroughNand)
{
    roundTrip(NvmeCommand{Op::Write, 50, 4096, 0, 1});
    auto reads_before = nand->stats().reads;
    Tick lat = roundTrip(NvmeCommand{Op::Read, 50, 4096, 0, 2});
    EXPECT_EQ(nand->stats().reads, reads_before + 1);
    // NAND tR (~50 us) makes mapped reads slower than FOB reads.
    EXPECT_GT(lat, usec(50));
}

TEST_F(ControllerTest, WriteCompletesViaBuffer)
{
    Tick lat = roundTrip(NvmeCommand{Op::Write, 10, 4096, 0, 1});
    // Buffered write: no tProg (1.3 ms) in the host latency.
    EXPECT_LT(lat, usec(100));
    EXPECT_TRUE(ctrl->ftl().isMapped(10));
    EXPECT_EQ(ctrl->stats().writesCompleted, 1u);
}

TEST_F(ControllerTest, SequentialWritesFasterThanRandom)
{
    // Issue a sequential stream and a random stream; compare average
    // completion spacing (the write pipe service differs).
    FirmwareConfig fw = quietFirmware();
    rebuild(fw);
    Tick t0 = sim->now();
    for (int i = 0; i < 32; ++i)
        ctrl->submit(NvmeCommand{Op::Write,
                                 static_cast<std::uint64_t>(i), 4096, 0,
                                 static_cast<std::uint64_t>(i)});
    sim->run();
    Tick seq_done = completionTimes.back() - t0;

    rebuild(fw);
    t0 = sim->now();
    for (int i = 0; i < 32; ++i)
        ctrl->submit(NvmeCommand{Op::Write,
                                 static_cast<std::uint64_t>(
                                     (i * 97) % 8192),
                                 4096, 0,
                                 static_cast<std::uint64_t>(i)});
    sim->run();
    Tick rand_done = completionTimes.back() - t0;
    EXPECT_GT(rand_done, 2 * seq_done);
}

TEST_F(ControllerTest, SmartStallDelaysReads)
{
    FirmwareConfig fw;
    fw.smart.period = msec(5);
    fw.smart.updateDuration = usec(500);
    fw.smart.saveEvery = 0; // updates only
    rebuild(fw);
    afa::obs::TraceParams trace;
    trace.mask = afa::obs::categoryBit(afa::obs::Category::Smart);
    afa::obs::SpanLog spans(trace);
    ctrl->setSpanLog(&spans, 0);
    // Issue a read every 50 us for 20 ms; at least one lands in a
    // SMART stall window and pays ~hundreds of us.
    Tick worst = 0;
    for (Tick t = 0; t < msec(20); t += usec(50)) {
        sim->run(t);
        std::size_t before = completions.size();
        ctrl->submit(NvmeCommand{Op::Read, 0, 4096, 0, t});
        Tick begin = sim->now();
        while (completions.size() == before && sim->pendingEvents())
            sim->runSteps(1);
        worst = std::max(worst, sim->now() - begin);
    }
    EXPECT_GT(worst, usec(300));
    EXPECT_GT(ctrl->stats().smartStallDelay, 0u);
    EXPECT_GT(ctrl->smart().collections(), 2u);
    // Every stalled pipeline slot shows up as a SmartStall span.
    const auto &stall =
        spans.attribution().stage(afa::obs::Stage::SmartStall);
    EXPECT_GT(stall.count, 0u);
    EXPECT_EQ(stall.totalTicks, ctrl->stats().smartStallDelay);
    ctrl->setSpanLog(nullptr, 0);
}

TEST_F(ControllerTest, ExperimentalFirmwareHasNoSmartStalls)
{
    FirmwareConfig fw = quietFirmware(); // the experimental firmware
    fw.smart.period = msec(5); // would fire often if enabled
    fw.hiccupProbability = 0.0;
    rebuild(fw);
    Tick worst = 0;
    for (Tick t = 0; t < msec(20); t += usec(50)) {
        sim->run(t);
        std::size_t before = completions.size();
        ctrl->submit(NvmeCommand{Op::Read, 0, 4096, 0, t});
        Tick begin = sim->now();
        while (completions.size() == before && sim->pendingEvents())
            sim->runSteps(1);
        worst = std::max(worst, sim->now() - begin);
    }
    EXPECT_LT(worst, usec(40));
    EXPECT_EQ(ctrl->smart().collections(), 0u);
    EXPECT_EQ(ctrl->stats().smartStallDelay, 0u);
}

TEST_F(ControllerTest, PipelineSerialisesBackToBackReads)
{
    // Two reads submitted at once: completions spaced by at least the
    // per-command processing time.
    ctrl->submit(NvmeCommand{Op::Read, 0, 4096, 0, 1});
    ctrl->submit(NvmeCommand{Op::Read, 8, 4096, 0, 2});
    sim->run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_GE(completionTimes[1] - completionTimes[0],
              ctrl->firmware().readProcTime / 2);
}

TEST_F(ControllerTest, InvalidSizesRejected)
{
    Tick lat = roundTrip(NvmeCommand{Op::Read, 0, 1000, 0, 1});
    (void)lat;
    EXPECT_EQ(completions[0].status, Status::InvalidField);
    roundTrip(NvmeCommand{Op::Write, 0, 0, 0, 2});
    EXPECT_EQ(completions[1].status, Status::InvalidField);
}

TEST_F(ControllerTest, MultiBlockReadCompletesOnce)
{
    Tick lat = roundTrip(NvmeCommand{Op::Read, 0, 131072, 0, 1});
    EXPECT_EQ(completions.size(), 1u);
    // 128 KiB at 1.7 GB/s internal ~ 77 us of transfer.
    EXPECT_GT(lat, usec(70));
    EXPECT_EQ(ctrl->stats().bytesRead, 131072u);
}

TEST_F(ControllerTest, LimpFactorOutsideRangePanics)
{
    // Past 1e6 the injected excess media time could overflow Tick.
    EXPECT_THROW(ctrl->setLimpFactor(0.5), afa::sim::SimError);
    EXPECT_THROW(ctrl->setLimpFactor(1e7), afa::sim::SimError);
    EXPECT_THROW(ctrl->setLimpFactor(1e30), afa::sim::SimError);
    ctrl->setLimpFactor(Controller::kMaxLimpFactor);
    EXPECT_EQ(ctrl->limpFactor(), 1e6);
}

TEST_F(ControllerTest, UnwiredControllerIsFatal)
{
    Simulator s2(1);
    NandArray n2(s2, "nand2", testNand());
    Controller c2(s2, "nvme1", FirmwareConfig{}, n2, testFtl());
    EXPECT_THROW(c2.submit(NvmeCommand{}), afa::sim::SimError);
}

TEST_F(ControllerTest, HiccupsAppearAtConfiguredRate)
{
    FirmwareConfig fw;
    fw.hiccupProbability = 0.5; // exaggerate for the test
    fw.smart.enabled = false;
    rebuild(fw);
    for (int i = 0; i < 100; ++i)
        roundTrip(NvmeCommand{Op::Read, 0, 4096, 0,
                              static_cast<std::uint64_t>(i)});
    EXPECT_GT(ctrl->stats().hiccups, 20u);
    EXPECT_LT(ctrl->stats().hiccups, 80u);
}

} // namespace
