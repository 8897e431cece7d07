/**
 * @file
 * Device command fast-path differential tests (DESIGN.md §9).
 *
 * Two identically seeded controller stacks replay the same scripted
 * command stream -- one with the single-event fast path (the
 * default), one forced onto the chained event model via
 * setFastPath(false). Everything observable must match to the tick:
 * completion times and statuses, controller/FTL/NAND counters, NAND
 * horizon state, span attribution, and the post-run position of
 * every RNG stream. Only the executed-event count may differ.
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
using afa::sim::Rng;
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

/**
 * Test firmware: SMART off so unbounded run() terminates, hiccup
 * probability cranked from 4e-6 to 5% so a few-hundred-op script
 * actually exercises the hiccup draw on both models.
 */
FirmwareConfig
spicyFirmware()
{
    FirmwareConfig fw;
    fw.smart.enabled = false;
    fw.hiccupProbability = 0.05;
    return fw;
}

/** One scripted action, replayed identically into both stacks. */
struct ScriptOp
{
    enum Kind { Submit, LimpOn, LimpOff, Stall, FastOff, FastOn };
    Kind kind = Submit;
    Tick when = 0;
    NvmeCommand cmd; ///< Submit only
    Tick stallFor = 0; ///< Stall only
};

/** One full device stack under a loopback transport. */
struct Stack
{
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<NandArray> nand;
    std::unique_ptr<Controller> ctrl;
    std::unique_ptr<afa::obs::SpanLog> spans;
    std::vector<NvmeCompletion> completions;
    std::vector<Tick> completionTimes;

    void
    build(bool fast_path, bool with_spans)
    {
        sim = std::make_unique<Simulator>(11);
        nand = std::make_unique<NandArray>(*sim, "nand", testNand());
        ctrl = std::make_unique<Controller>(
            *sim, "nvme0", spicyFirmware(), *nand, testFtl());
        ctrl->setFastPath(fast_path);
        if (with_spans) {
            afa::obs::TraceParams tp;
            tp.mask = ~0u;
            spans = std::make_unique<afa::obs::SpanLog>(tp);
            ctrl->setSpanLog(spans.get(), 0);
        }
        ctrl->setTransport([this](std::uint32_t, std::uint64_t,
                                  const NvmeCompletion &c) {
            sim->scheduleAfter(usec(2), [this, c] {
                completions.push_back(c);
                completionTimes.push_back(sim->now());
            });
        });
        ctrl->start();
    }

    void
    replay(const std::vector<ScriptOp> &script)
    {
        ctrl->ftl().precondition(0.5);
        for (const ScriptOp &op : script) {
            switch (op.kind) {
            case ScriptOp::Submit:
                sim->scheduleAt(op.when, [this, cmd = op.cmd] {
                    ctrl->submit(cmd);
                });
                break;
            case ScriptOp::LimpOn:
                sim->scheduleAt(op.when,
                                [this] { ctrl->setLimpFactor(4.0); });
                break;
            case ScriptOp::LimpOff:
                sim->scheduleAt(op.when,
                                [this] { ctrl->setLimpFactor(1.0); });
                break;
            case ScriptOp::Stall:
                sim->scheduleAt(op.when, [this, d = op.stallFor] {
                    ctrl->stallUntil(sim->now() + d);
                });
                break;
            case ScriptOp::FastOff:
                // No-op on the reference stack (already off).
                sim->scheduleAt(op.when, [this] {
                    if (ctrl->fastPath())
                        ctrl->setFastPath(false);
                });
                break;
            case ScriptOp::FastOn:
                sim->scheduleAt(op.when, [this] {
                    if (this->fastOnIsFast)
                        ctrl->setFastPath(true);
                });
                break;
            }
        }
        sim->run();
    }

    /** True on the fast stack: FastOn script ops re-enable there. */
    bool fastOnIsFast = false;
};

/**
 * A randomized mixed script: bursty QD>1 reads and writes over a
 * half-preconditioned drive, salted with reads anywhere on the drive
 * and invalid commands. @p with_faults adds limp windows and firmware
 * stalls; @p with_toggle flips the fast path off and back on mid-run
 * (on the fast stack only).
 *
 * @p light trades intensity for idleness: short bursts, small reads,
 * few writes, gaps longer than a burst's full drain time. The heavy
 * default keeps the tiny test NAND saturated, which means some
 * chained command is nearly always in flight and the chain-depth
 * guard (correctly) keeps almost everything chained -- great for
 * exactness coverage, useless for asserting fast-path *counts*. The
 * light profile drains between bursts, so most bursts start from an
 * idle device and take the fast path.
 */
std::vector<ScriptOp>
makeScript(std::uint64_t seed, std::size_t ops, bool with_faults,
           bool with_toggle, bool light = false)
{
    Rng rng(seed);
    std::vector<ScriptOp> script;
    Tick when = usec(5);
    std::uint64_t cmd_id = 1;
    while (script.size() < ops) {
        // Bursts land back-to-back on the same tick (QD > 1).
        std::uint64_t burst =
            1 + rng.uniformInt(0, light ? 1 : 4);
        for (std::uint64_t b = 0; b < burst; ++b) {
            ScriptOp op;
            op.when = when;
            NvmeCommand &cmd = op.cmd;
            cmd.cmdId = cmd_id;
            cmd.tag = cmd_id++;
            std::uint64_t kind = rng.uniformInt(0, 99);
            if (kind < (light ? 75 : 65)) {
                cmd.op = Op::Read;
                std::uint64_t nb =
                    1 + rng.uniformInt(0, light ? 1 : 7);
                cmd.lba = rng.uniformInt(0, 8192 - nb);
                cmd.bytes =
                    kLogicalBlockBytes * std::uint32_t(nb);
            } else if (kind < (light ? 85 : 80)) {
                cmd.op = Op::Write;
                cmd.lba = rng.uniformInt(0, 511);
                cmd.bytes = kLogicalBlockBytes *
                            std::uint32_t(
                                light
                                    ? 1
                                    : 1 + rng.uniformInt(0, 3));
            } else if (kind < 95) {
                cmd.op = Op::Read;
                cmd.lba = rng.uniformInt(0, 8191);
            } else {
                // Validation path: a byte count that is not a
                // whole number of logical blocks.
                cmd.op = rng.uniformInt(0, 1) ? Op::Read : Op::Write;
                cmd.lba = rng.uniformInt(0, 511);
                cmd.bytes = rng.uniformInt(0, 1) ? 1000u : 0u;
            }
            script.push_back(op);
        }
        when += light ? usec(80 + rng.uniformInt(0, 160))
                      : usec(rng.uniformInt(0, 60));
        if (with_faults && rng.uniformInt(0, 19) == 0) {
            ScriptOp fault;
            fault.when = when;
            std::uint64_t f = rng.uniformInt(0, 2);
            if (f == 0) {
                fault.kind = ScriptOp::LimpOn;
                script.push_back(fault);
                fault.kind = ScriptOp::LimpOff;
                fault.when = when + usec(200);
                script.push_back(fault);
            } else if (f == 1) {
                fault.kind = ScriptOp::Stall;
                fault.stallFor = usec(50 + rng.uniformInt(0, 100));
                script.push_back(fault);
            }
            when += usec(5);
        }
        if (with_toggle && rng.uniformInt(0, 24) == 0) {
            ScriptOp t;
            t.kind = ScriptOp::FastOff;
            t.when = when;
            script.push_back(t);
            t.kind = ScriptOp::FastOn;
            t.when = when + usec(100);
            script.push_back(t);
            when += usec(5);
        }
    }
    return script;
}

/** A one-block (4 KiB) command submitted at @p when. On the
 *  half-preconditioned test drive, blocks from 4096 up are unmapped. */
ScriptOp
oneBlock(Op kind, Tick when, std::uint64_t id, std::uint64_t lba)
{
    ScriptOp op;
    op.when = when;
    op.cmd.cmdId = id;
    op.cmd.tag = id;
    op.cmd.op = kind;
    op.cmd.lba = lba;
    op.cmd.bytes = kLogicalBlockBytes;
    return op;
}

/** Everything observable must match; event counts may not. */
void
expectSameObservables(Stack &fast, Stack &ref)
{
    ASSERT_EQ(fast.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < fast.completions.size(); ++i) {
        EXPECT_EQ(fast.completions[i].cmdId, ref.completions[i].cmdId)
            << "completion order diverged at index " << i;
        EXPECT_EQ(int(fast.completions[i].status),
                  int(ref.completions[i].status))
            << "status diverged for cmd "
            << fast.completions[i].cmdId;
        EXPECT_EQ(fast.completionTimes[i], ref.completionTimes[i])
            << "completion tick diverged for cmd "
            << fast.completions[i].cmdId;
    }

    const ControllerStats &fc = fast.ctrl->stats();
    const ControllerStats &rc = ref.ctrl->stats();
    EXPECT_EQ(fc.readsCompleted, rc.readsCompleted);
    EXPECT_EQ(fc.writesCompleted, rc.writesCompleted);
    EXPECT_EQ(fc.bytesRead, rc.bytesRead);
    EXPECT_EQ(fc.bytesWritten, rc.bytesWritten);
    EXPECT_EQ(fc.hiccups, rc.hiccups);
    EXPECT_EQ(fc.smartStallDelay, rc.smartStallDelay);
    EXPECT_EQ(fc.droppedCommands, rc.droppedCommands);
    EXPECT_EQ(fc.faultStallDelay, rc.faultStallDelay);

    const FtlStats &ff = fast.ctrl->ftl().stats();
    const FtlStats &rf = ref.ctrl->ftl().stats();
    EXPECT_EQ(ff.hostWrites, rf.hostWrites);
    EXPECT_EQ(ff.hostReadsMapped, rf.hostReadsMapped);
    EXPECT_EQ(ff.gcPageReads, rf.gcPageReads);
    EXPECT_EQ(ff.gcSlotWrites, rf.gcSlotWrites);
    EXPECT_EQ(ff.erases, rf.erases);
    EXPECT_EQ(ff.programs, rf.programs);
    EXPECT_EQ(ff.gcRuns, rf.gcRuns);
    EXPECT_EQ(fast.ctrl->ftl().buffered(),
              ref.ctrl->ftl().buffered());
    EXPECT_EQ(fast.ctrl->ftl().freeBlocks(),
              ref.ctrl->ftl().freeBlocks());

    const afa::nand::NandStats &fn = fast.nand->stats();
    const afa::nand::NandStats &rn = ref.nand->stats();
    EXPECT_EQ(fn.reads, rn.reads);
    EXPECT_EQ(fn.programs, rn.programs);
    EXPECT_EQ(fn.erases, rn.erases);
    EXPECT_EQ(fn.dieBusyTime, rn.dieBusyTime);
    EXPECT_EQ(fn.channelBusyTime, rn.channelBusyTime);
    const NandParams &np = fast.nand->params();
    for (unsigned c = 0; c < np.channels; ++c)
        for (unsigned d = 0; d < np.diesPerChannel; ++d)
            EXPECT_EQ(fast.nand->dieFreeAt(c, d),
                      ref.nand->dieFreeAt(c, d))
                << "die " << c << "/" << d;

    // The fast path must not change any stream's draw count: probe
    // the post-run position of every stream the device draws from.
    EXPECT_EQ(fast.ctrl->rng().uniformInt(0, 1u << 30),
              ref.ctrl->rng().uniformInt(0, 1u << 30))
        << "controller RNG stream diverged";
    EXPECT_EQ(fast.nand->rng().uniformInt(0, 1u << 30),
              ref.nand->rng().uniformInt(0, 1u << 30))
        << "NAND RNG stream diverged";
    EXPECT_EQ(fast.ctrl->ftl().rng().uniformInt(0, 1u << 30),
              ref.ctrl->ftl().rng().uniformInt(0, 1u << 30))
        << "FTL RNG stream diverged";
}

class ControllerFastPathTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    runDifferential(std::uint64_t seed, std::size_t ops,
                    bool with_faults, bool with_toggle,
                    bool with_spans = false, bool light = false)
    {
        auto script =
            makeScript(seed, ops, with_faults, with_toggle, light);
        fast.build(true, with_spans);
        fast.fastOnIsFast = true;
        ref.build(false, with_spans);
        fast.replay(script);
        ref.replay(script);
        ASSERT_GT(fast.completions.size(), ops / 2);
        expectSameObservables(fast, ref);
    }

    Stack fast;
    Stack ref;
};

TEST_F(ControllerFastPathTest, MixedWorkloadReplaysTickIdentical)
{
    // Heavy profile: pure exactness under saturation (the chain-depth
    // guard keeps nearly everything chained while the device is
    // backlogged, so no fast-count assertion is meaningful here).
    runDifferential(1234, 450, false, false);
    EXPECT_EQ(ref.ctrl->stats().fastPathCommands, 0u);
    EXPECT_GT(ref.ctrl->stats().fallbackCommands, 400u);
}

TEST_F(ControllerFastPathTest, LightWorkloadTakesFastPath)
{
    // Light profile: bursts drain before the next one arrives, so
    // most commands find an idle device and dispatch as one event.
    runDifferential(1234, 450, false, false, /*with_spans=*/false,
                    /*light=*/true);
    EXPECT_GT(fast.ctrl->stats().fastPathCommands, 50u);
    EXPECT_EQ(ref.ctrl->stats().fastPathCommands, 0u);
    EXPECT_GT(ref.ctrl->stats().fallbackCommands, 400u);
}

TEST_F(ControllerFastPathTest, OnlyUnmappedReadsTakeTheFastPath)
{
    // One 4 KiB command at a time on an idle, healthy,
    // half-preconditioned drive. A warm-up write opens a frontier
    // page, so the measured write's placement needs no program, no
    // allocation and no GC; it still takes the chained model, and so
    // does a read of a mapped block. Only a read of an unmapped block
    // runs as one event.
    fast.build(true, false);
    fast.ctrl->ftl().precondition(0.5);
    std::uint64_t id = 1;
    const auto run_one = [this, &id](Op op, std::uint64_t lba) {
        NvmeCommand cmd;
        cmd.cmdId = id;
        cmd.tag = id++;
        cmd.op = op;
        cmd.lba = lba;
        cmd.bytes = kLogicalBlockBytes;
        fast.sim->scheduleAfter(usec(10),
                                [this, cmd] { fast.ctrl->submit(cmd); });
        fast.sim->run();
    };
    const ControllerStats &st = fast.ctrl->stats();
    const Ftl &ftl = fast.ctrl->ftl();
    ASSERT_TRUE(ftl.isMapped(100));
    ASSERT_FALSE(ftl.isMapped(6000));

    run_one(Op::Write, 7);
    run_one(Op::Write, 100);
    EXPECT_EQ(st.fastPathCommands, 0u);
    EXPECT_EQ(st.fallbackCommands, 2u);
    run_one(Op::Read, 100);
    EXPECT_EQ(st.fastPathCommands, 0u);
    EXPECT_EQ(st.fallbackCommands, 3u);
    run_one(Op::Read, 6000);
    EXPECT_EQ(st.fastPathCommands, 1u);
    EXPECT_EQ(st.fallbackCommands, 3u);
    EXPECT_EQ(fast.completions.size(), 4u);
}

TEST_F(ControllerFastPathTest, FaultHooksStayExact)
{
    runDifferential(987, 450, true, false, /*with_spans=*/false,
                    /*light=*/true);
    // Writes and mapped reads take the chained model; FOB reads
    // fast-path, inside limp windows and stalls too.
    EXPECT_GT(fast.ctrl->stats().fallbackCommands, 0u);
    EXPECT_GT(fast.ctrl->stats().fastPathCommands, 0u);
}

TEST_F(ControllerFastPathTest, ChainedDispatchLeavesFastReadsFinal)
{
    // Seven FOB reads and a write on one tick of an idle drive (the
    // BM_DeviceCommandContended burst). The write leaves the pipeline
    // after every read, so its draws, DMA claim and FTL writes all
    // come after the reads' pipe exits: the reads keep their single
    // event.
    std::vector<ScriptOp> script;
    for (std::uint64_t i = 1; i <= 7; ++i)
        script.push_back(oneBlock(Op::Read, usec(10), i, 6000 + 8 * i));
    script.push_back(oneBlock(Op::Write, usec(10), 8, 7));
    fast.build(true, false);
    ref.build(false, false);
    fast.replay(script);
    ref.replay(script);
    EXPECT_EQ(fast.ctrl->stats().fastPathCommands, 7u);
    EXPECT_EQ(fast.ctrl->stats().fallbackCommands, 1u);
    EXPECT_EQ(ref.ctrl->stats().fallbackCommands, 8u);
    ASSERT_EQ(fast.completions.size(), 8u);
    expectSameObservables(fast, ref);
}

TEST_F(ControllerFastPathTest, MidRunToggleStaysExact)
{
    runDifferential(555, 420, true, true, /*with_spans=*/false,
                    /*light=*/true);
    EXPECT_GT(fast.ctrl->stats().fastPathCommands, 0u);
    EXPECT_GT(fast.ctrl->stats().fallbackCommands, 0u);
}

TEST_F(ControllerFastPathTest, MoreSeedsReplayTickIdentical)
{
    for (std::uint64_t seed : {7u, 42u, 20260808u}) {
        fast = Stack{};
        ref = Stack{};
        runDifferential(seed, 150, seed % 2 == 0, false);
    }
}

TEST_F(ControllerFastPathTest, SpanValuesAndAttributionMatch)
{
    runDifferential(31337, 400, true, false, /*with_spans=*/true);

    // Ring recording *order* may differ (fast reads record their
    // media/xfer spans at completion); values and attribution totals
    // may not.
    ASSERT_TRUE(fast.spans && ref.spans);
    EXPECT_EQ(fast.spans->recorded(), ref.spans->recorded());
    EXPECT_EQ(fast.spans->dropped(), ref.spans->dropped());
    afa::obs::Attribution fa = fast.spans->attribution();
    afa::obs::Attribution ra = ref.spans->attribution();
    for (std::size_t s = 0; s < afa::obs::kStageCount; ++s) {
        EXPECT_EQ(fa.stages[s].count, ra.stages[s].count)
            << "stage " << s;
        EXPECT_EQ(fa.stages[s].totalTicks, ra.stages[s].totalTicks)
            << "stage " << s;
        EXPECT_EQ(fa.stages[s].maxTicks, ra.stages[s].maxTicks)
            << "stage " << s;
    }
}

TEST_F(ControllerFastPathTest, OfflineWindowDropsIdentically)
{
    auto script = makeScript(99, 300, false, false);
    fast.build(true, false);
    ref.build(false, false);
    for (Stack *s : {&fast, &ref}) {
        s->sim->scheduleAt(usec(400),
                           [s] { s->ctrl->setOffline(true); });
        s->sim->scheduleAt(usec(900),
                           [s] { s->ctrl->setOffline(false); });
    }
    fast.replay(script);
    ref.replay(script);
    EXPECT_GT(fast.ctrl->stats().droppedCommands, 0u);
    expectSameObservables(fast, ref);
}

} // namespace
