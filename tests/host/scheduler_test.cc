/**
 * @file
 * Scheduler tests: execution/accounting, CFS fairness and wakeup
 * granularity (the paper's core pathology), RT preemption, isolcpus,
 * load balancing, ticks/nohz_full, c-states, HT sharing, interrupts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/scheduler.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::host;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

CpuMask
cpuBit(unsigned cpu)
{
    return CpuMask(1) << cpu;
}

class SchedulerTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /** Small deterministic host: 1 socket x N cores, no HT. */
    void
    build(unsigned cores, KernelConfig cfg = {}, unsigned threads = 1)
    {
        CpuTopologyParams tp;
        tp.sockets = 1;
        tp.coresPerSocket = cores;
        tp.threadsPerCore = threads;
        tp.uplinkSocket = 0;
        // Quiet RCU unless a test wants it.
        cfg.sched.rcuCallbackInterval = sec(10000);
        sim = std::make_unique<Simulator>(21);
        sched = std::make_unique<Scheduler>(*sim, "sched",
                                            CpuTopology(tp), cfg);
    }

    TaskId
    spawn(const std::string &name, CpuMask affinity = kAllCpus,
          SchedClass klass = SchedClass::Fair, int prio = 0)
    {
        TaskParams p;
        p.name = name;
        p.affinity = affinity;
        p.klass = klass;
        if (klass == SchedClass::RealTime)
            p.rtPriority = prio;
        else
            p.nice = prio;
        return sched->createTask(p);
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Scheduler> sched;
};

TEST_F(SchedulerTest, SingleTaskRunsItsWork)
{
    build(1);
    TaskId t = spawn("t");
    Tick done = 0;
    sched->runFor(t, usec(100), [&] { done = sim->now(); });
    sim->run();
    // Work + one context switch, nothing else on an idle host.
    EXPECT_EQ(done,
              usec(100) + sched->config().sched.contextSwitchCost);
    EXPECT_EQ(sched->taskStats(t).cpuTime, usec(100));
    EXPECT_EQ(sched->taskState(t), TaskState::Blocked);
}

TEST_F(SchedulerTest, SequentialSegmentsAccumulate)
{
    build(1);
    TaskId t = spawn("t");
    int finished = 0;
    std::function<void()> chain = [&] {
        if (++finished < 5)
            sched->runFor(t, usec(10), chain);
    };
    sched->runFor(t, usec(10), chain);
    sim->run();
    EXPECT_EQ(finished, 5);
    EXPECT_EQ(sched->taskStats(t).cpuTime, usec(50));
    EXPECT_EQ(sched->taskStats(t).segments, 5u);
}

TEST_F(SchedulerTest, RunForQueuesBusyTaskSegmentsInCallOrder)
{
    build(1);
    TaskId t = spawn("t");
    const Tick work[] = {usec(10), usec(20), usec(30), usec(40)};
    std::vector<int> order;
    std::vector<Tick> doneAt;
    std::vector<bool> idleAt;
    auto finish = [&](int seg) {
        order.push_back(seg);
        doneAt.push_back(sim->now());
        idleAt.push_back(sched->taskIdle(t));
    };
    sched->runFor(t, work[0], [&] {
        finish(0);
        // Given from inside on_done: it goes behind segments 1 and 2.
        sched->runFor(t, work[3], [&] { finish(3); });
    });
    sched->runFor(t, work[1], [&] { finish(1); });
    sched->runFor(t, work[2], [&] { finish(2); });
    EXPECT_FALSE(sched->taskIdle(t));
    sim->run();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    ASSERT_EQ(doneAt.size(), 4u);
    // Each segment starts no earlier than its predecessor completes.
    EXPECT_GE(doneAt[0], work[0]);
    for (std::size_t i = 1; i < doneAt.size(); ++i)
        EXPECT_GE(doneAt[i] - doneAt[i - 1], work[i]) << i;
    EXPECT_EQ(idleAt, (std::vector<bool>{false, false, false, true}));
    EXPECT_TRUE(sched->taskIdle(t));
    EXPECT_EQ(sched->taskStats(t).segments, 4u);
    EXPECT_EQ(sched->taskStats(t).cpuTime, usec(100));
}

TEST_F(SchedulerTest, WakeIpiIsFreeOnlyOnTheTasksCpu)
{
    build(2);
    TaskId t = spawn("t", cpuBit(1));
    sched->runFor(t, usec(10), [] {});
    sim->run();
    ASSERT_EQ(sched->taskCpu(t), 1u);
    EXPECT_EQ(sched->wakeIpi(t, 1), 0u);
    EXPECT_EQ(sched->wakeIpi(t, 0), sched->config().irq.ipiCost);
}

TEST_F(SchedulerTest, ZeroWorkPanics)
{
    build(1);
    TaskId t = spawn("t");
    EXPECT_THROW(sched->runFor(t, 0, [] {}), afa::sim::SimError);
}

TEST_F(SchedulerTest, TwoFairHogsShareACpu)
{
    build(1);
    sched->start();
    TaskId a = spawn("a", cpuBit(0));
    TaskId b = spawn("b", cpuBit(0));
    Tick done_a = 0, done_b = 0;
    sched->runFor(a, msec(20), [&] { done_a = sim->now(); });
    sched->runFor(b, msec(20), [&] { done_b = sim->now(); });
    sim->run(msec(100));
    ASSERT_GT(done_a, 0u);
    ASSERT_GT(done_b, 0u);
    // Interleaved fairly: both finish near 40 ms, within a slice or
    // two of each other.
    Tick diff = done_a > done_b ? done_a - done_b : done_b - done_a;
    EXPECT_LT(diff, msec(8));
    EXPECT_GT(std::max(done_a, done_b), msec(38));
}

TEST_F(SchedulerTest, NiceWeightsShiftShares)
{
    build(1);
    sched->start();
    TaskId fast = spawn("fast", cpuBit(0), SchedClass::Fair, -5);
    TaskId slow = spawn("slow", cpuBit(0), SchedClass::Fair, 5);
    Tick done_fast = 0, done_slow = 0;
    sched->runFor(fast, msec(20), [&] { done_fast = sim->now(); });
    sched->runFor(slow, msec(20), [&] { done_slow = sim->now(); });
    sim->run(msec(200));
    ASSERT_GT(done_fast, 0u);
    ASSERT_GT(done_slow, 0u);
    EXPECT_LT(done_fast, done_slow);
}

TEST_F(SchedulerTest, RealTimePreemptsFairImmediately)
{
    build(1);
    TaskId hog = spawn("hog", cpuBit(0));
    TaskId rt = spawn("rt", cpuBit(0), SchedClass::RealTime, 99);
    sched->runFor(hog, msec(50), [] {});
    sim->run(msec(1)); // hog is mid-burst
    Tick woke = sim->now();
    Tick done = 0;
    sched->runFor(rt, usec(5), [&] { done = sim->now(); });
    sim->run(msec(2));
    ASSERT_GT(done, 0u);
    // Preempted instantly: only switch + pollution + work.
    EXPECT_LT(done - woke, usec(15));
    EXPECT_GT(sched->taskStats(hog).preemptions, 0u);
}

TEST_F(SchedulerTest, HigherRtPriorityWins)
{
    build(1);
    TaskId lo = spawn("rt-lo", cpuBit(0), SchedClass::RealTime, 10);
    TaskId hi = spawn("rt-hi", cpuBit(0), SchedClass::RealTime, 90);
    sched->runFor(lo, msec(5), [] {});
    sim->run(usec(100));
    Tick done_hi = 0;
    sched->runFor(hi, usec(10), [&] { done_hi = sim->now(); });
    sim->run(msec(1));
    EXPECT_GT(done_hi, 0u);
    EXPECT_LT(done_hi - usec(100), usec(20));
}

TEST_F(SchedulerTest, RtDoesNotPreemptHigherRt)
{
    build(1);
    TaskId hi = spawn("rt-hi", cpuBit(0), SchedClass::RealTime, 90);
    TaskId lo = spawn("rt-lo", cpuBit(0), SchedClass::RealTime, 10);
    Tick done_hi = 0, done_lo = 0;
    sched->runFor(hi, msec(1), [&] { done_hi = sim->now(); });
    sim->run(usec(10));
    sched->runFor(lo, usec(10), [&] { done_lo = sim->now(); });
    sim->run(msec(5));
    EXPECT_GT(done_lo, done_hi); // FIFO: lo waits for hi
}

TEST_F(SchedulerTest, WakeupGranularityDelaysIoTaskBehindFreshHog)
{
    // The paper's central default-config pathology: a CPU hog whose
    // vruntime is still close to the I/O task's blocks wakeup
    // preemption; the I/O task waits for the tick/slice machinery.
    build(1);
    sched->start();
    TaskId hog = spawn("hog", cpuBit(0));
    TaskId io = spawn("io", cpuBit(0));
    sched->runFor(hog, sec(1), [] {});
    sim->run(usec(50)); // hog fresh: tiny vruntime lead
    Tick woke = sim->now();
    Tick done = 0;
    sched->runFor(io, usec(3), [&] { done = sim->now(); });
    sim->run(msec(20));
    ASSERT_GT(done, 0u);
    Tick delay = done - woke;
    // Must NOT have preempted instantly; the wait is slice-scale
    // (milliseconds), the Fig. 6 tail.
    EXPECT_GT(delay, msec(1));
    EXPECT_LT(delay, msec(10));
    EXPECT_GT(sched->taskStats(io).worstWait, msec(1));
}

TEST_F(SchedulerTest, MatureHogIsPreemptedInstantly)
{
    // Once the hog's vruntime leads by more than the granularity, a
    // woken I/O task preempts immediately -- the steady state.
    build(1);
    sched->start();
    TaskId hog = spawn("hog", cpuBit(0));
    TaskId io = spawn("io", cpuBit(0));
    sched->runFor(hog, sec(1), [] {});
    // Let the hog accumulate several ms of vruntime, much more than
    // the 1 ms wakeup granularity.
    sim->run(msec(10));
    Tick woke = sim->now();
    Tick done = 0;
    sched->runFor(io, usec(3), [&] { done = sim->now(); });
    sim->run(msec(15));
    ASSERT_GT(done, 0u);
    EXPECT_LT(done - woke, usec(20));
}

TEST_F(SchedulerTest, PlacementAvoidsIsolatedCpus)
{
    KernelConfig cfg;
    cfg.isolcpus = CpuSet{1};
    build(2, cfg);
    sched->start();
    // Both generic tasks must crowd onto cpu0 even though cpu1 idles.
    TaskId a = spawn("a");
    TaskId b = spawn("b");
    sched->runFor(a, msec(5), [] {});
    sched->runFor(b, msec(5), [] {});
    sim->run(usec(100));
    EXPECT_EQ(sched->taskCpu(a), 0u);
    EXPECT_EQ(sched->taskCpu(b), 0u);
    EXPECT_TRUE(sched->cpuIdle(1));
}

TEST_F(SchedulerTest, ExplicitAffinityReachesIsolatedCpu)
{
    KernelConfig cfg;
    cfg.isolcpus = CpuSet{1};
    build(2, cfg);
    sched->start();
    TaskId pinned = spawn("pinned", cpuBit(1));
    Tick done = 0;
    sched->runFor(pinned, usec(50), [&] { done = sim->now(); });
    sim->run(msec(1));
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sched->taskCpu(pinned), 1u);
}

TEST_F(SchedulerTest, IdleBalancePullsQueuedTask)
{
    build(2);
    sched->start();
    TaskId long1 = spawn("long1");
    TaskId short1 = spawn("short1");
    TaskId long2 = spawn("long2");
    sched->runFor(long1, msec(50), [] {});
    sched->runFor(short1, msec(1), [] {});
    // long2 queues behind one of the running tasks...
    sched->runFor(long2, msec(50), [] {});
    // ...when short1 finishes, its CPU idle-balances and steals long2.
    sim->run(msec(10));
    EXPECT_GT(sched->taskStats(long2).migrations +
                  sched->cpuStats(0).pulls + sched->cpuStats(1).pulls,
              0u);
    // Both CPUs are busy now.
    EXPECT_FALSE(sched->cpuIdle(0));
    EXPECT_FALSE(sched->cpuIdle(1));
}

TEST_F(SchedulerTest, IsolatedCpuNeverPulls)
{
    KernelConfig cfg;
    cfg.isolcpus = CpuSet{1};
    build(2, cfg);
    sched->start();
    // Three hogs on cpu0; isolated cpu1 must not steal any.
    for (int i = 0; i < 3; ++i) {
        TaskId t = spawn(afa::sim::strfmt("hog%d", i));
        sched->runFor(t, msec(20), [] {});
    }
    sim->run(msec(10));
    EXPECT_TRUE(sched->cpuIdle(1));
    EXPECT_EQ(sched->cpuStats(1).pulls, 0u);
}

TEST_F(SchedulerTest, TickCountsRespectNohzFull)
{
    KernelConfig cfg;
    cfg.nohzFull = CpuSet{1};
    build(2, cfg);
    sched->start();
    TaskId a = spawn("a", cpuBit(0));
    TaskId b = spawn("b", cpuBit(1));
    sched->runFor(a, sec(1), [] {});
    sched->runFor(b, sec(1), [] {});
    sim->run(sec(1));
    // cpu0 ticks at 1000 Hz, cpu1 at ~1 Hz.
    EXPECT_GT(sched->cpuStats(0).ticks, 900u);
    EXPECT_LT(sched->cpuStats(1).ticks, 20u);
}

TEST_F(SchedulerTest, InterruptStealsCpuFromRunningTask)
{
    build(1);
    TaskId t = spawn("t");
    Tick done = 0;
    sched->runFor(t, usec(100), [&] { done = sim->now(); });
    sim->run(usec(20));
    bool handled = false;
    sched->interrupt(0, usec(30), [&] { handled = true; });
    sim->run();
    EXPECT_TRUE(handled);
    // Completion pushed out by the 30 us the irq stole.
    EXPECT_GE(done,
              usec(130) + sched->config().sched.contextSwitchCost);
    EXPECT_EQ(sched->cpuStats(0).interrupts, 1u);
}

TEST_F(SchedulerTest, InterruptOnIdleCpuPaysC1Exit)
{
    build(1);
    // Run a task so the cpu enters idle through the governor.
    TaskId t = spawn("t");
    sched->runFor(t, usec(10), [] {});
    sim->run();
    Tick begin = sim->now();
    Tick handled_at = 0;
    sched->interrupt(0, usec(1), [&] { handled_at = sim->now(); });
    sim->run();
    EXPECT_EQ(handled_at - begin,
              usec(1) + sched->config().cstate.c1ExitLatency);
    EXPECT_GT(sched->cpuStats(0).cstateWakes, 0u);
}

TEST_F(SchedulerTest, LongIdlePredictsC6)
{
    build(1);
    TaskId t = spawn("t");
    // First idle period: 1 ms (recorded by the governor).
    sched->runFor(t, usec(10), [] {});
    sim->run();
    sim->scheduleAfter(msec(1), [&] {
        sched->runFor(t, usec(10), [] {});
    });
    sim->run();
    // Second idle: predicted long, C6 chosen; interrupt pays 40 us.
    Tick begin = sim->now();
    Tick handled_at = 0;
    sched->interrupt(0, usec(1), [&] { handled_at = sim->now(); });
    sim->run();
    EXPECT_EQ(handled_at - begin,
              usec(1) + sched->config().cstate.c6ExitLatency);
}

TEST_F(SchedulerTest, IdlePollEliminatesExitLatency)
{
    KernelConfig cfg;
    cfg.cstate.idlePoll = true;
    build(1, cfg);
    TaskId t = spawn("t");
    sched->runFor(t, usec(10), [] {});
    sim->run();
    Tick begin = sim->now();
    Tick handled_at = 0;
    sched->interrupt(0, usec(1), [&] { handled_at = sim->now(); });
    sim->run();
    EXPECT_EQ(handled_at - begin, usec(1));
}

TEST_F(SchedulerTest, MaxCstate1CapsExitLatency)
{
    KernelConfig cfg;
    cfg.cstate.maxCstate = 1;
    build(1, cfg);
    TaskId t = spawn("t");
    sched->runFor(t, usec(10), [] {});
    sim->run();
    sim->scheduleAfter(msec(1), [] {}); // long idle
    sim->run();
    Tick begin = sim->now();
    Tick handled_at = 0;
    sched->interrupt(0, usec(1), [&] { handled_at = sim->now(); });
    sim->run();
    EXPECT_EQ(handled_at - begin,
              usec(1) + sched->config().cstate.c1ExitLatency);
}

TEST_F(SchedulerTest, HyperThreadSiblingSlowsExecution)
{
    build(1, {}, 2); // one physical core, two logical
    TaskId a = spawn("a", cpuBit(0));
    TaskId b = spawn("b", cpuBit(1));
    Tick done_a = 0, done_b = 0;
    sched->runFor(a, msec(1), [&] { done_a = sim->now(); });
    sched->runFor(b, msec(1), [&] { done_b = sim->now(); });
    sim->run();
    // b started while a was running: pays the HT slowdown.
    EXPECT_GT(done_b, done_a);
    double ratio = static_cast<double>(done_b) /
        static_cast<double>(done_a);
    EXPECT_GT(ratio, 1.2);
}

TEST_F(SchedulerTest, CachePollutionChargedOnCrossSwitch)
{
    build(1);
    sched->start();
    TaskId a = spawn("a", cpuBit(0));
    TaskId b = spawn("b", cpuBit(0));
    Tick done_a = 0, done_b = 0;
    sched->runFor(a, msec(10), [&] { done_a = sim->now(); });
    sched->runFor(b, msec(10), [&] { done_b = sim->now(); });
    sim->run(msec(60));
    ASSERT_GT(done_a, 0u);
    ASSERT_GT(done_b, 0u);
    // a's wall time far exceeds its own work: it shared the CPU.
    EXPECT_GT(done_a, msec(14));
    // The pair takes strictly longer than the 20 ms of pure work:
    // context switches and cache pollution are real costs.
    EXPECT_GT(std::max(done_a, done_b), msec(20));
}

TEST_F(SchedulerTest, WaitTimeAccounted)
{
    build(1);
    TaskId a = spawn("a", cpuBit(0));
    TaskId b = spawn("b", cpuBit(0));
    sched->runFor(a, usec(100), [] {});
    sched->runFor(b, usec(10), [] {});
    sim->run();
    // b waited for a to finish (no ticks running -> no preemption).
    EXPECT_GE(sched->taskStats(b).waitTime, usec(90));
    EXPECT_GE(sched->taskStats(b).worstWait, usec(90));
}

TEST_F(SchedulerTest, EmptyAffinityIsFatal)
{
    build(1);
    TaskParams p;
    p.name = "bad";
    p.affinity = 0;
    EXPECT_THROW(sched->createTask(p), afa::sim::SimError);
}

TEST_F(SchedulerTest, RcuNoiseInterruptsBusyCpu)
{
    KernelConfig cfg;
    build(1, cfg);
    sched->mutableConfig().sched.rcuCallbackInterval = msec(1);
    sched->start();
    TaskId t = spawn("t", cpuBit(0));
    sched->runFor(t, msec(50), [] {});
    sim->run(msec(50));
    EXPECT_GT(sched->cpuStats(0).interrupts, 10u);
}

TEST_F(SchedulerTest, RcuNocbsOffloadsToHousekeeping)
{
    KernelConfig cfg;
    cfg.isolcpus = CpuSet{1};
    cfg.rcuNocbs = CpuSet{1};
    build(2, cfg);
    sched->mutableConfig().sched.rcuCallbackInterval = msec(1);
    sched->start();
    TaskId t = spawn("t", cpuBit(1));
    sched->runFor(t, msec(50), [] {});
    sim->run(msec(50));
    // The isolated cpu's callbacks ran on cpu0 instead.
    EXPECT_GT(sched->cpuStats(0).interrupts, 10u);
    EXPECT_EQ(sched->cpuStats(1).interrupts, 0u);
}

} // namespace
