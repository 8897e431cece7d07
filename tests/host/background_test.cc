/**
 * @file
 * Background-load tests: the CentOS 7 zoo spawns, runs bursts through
 * the fair class, respects isolcpus, and actually interferes with a
 * pinned I/O-style task when allowed to share its CPU.
 */

#include <gtest/gtest.h>

#include <memory>

#include "host/background.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::host;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

class BackgroundTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    build(KernelConfig cfg = {},
          BackgroundParams bp = BackgroundParams::centos7Defaults())
    {
        cfg.sched.rcuCallbackInterval = sec(10000);
        sim = std::make_unique<Simulator>(44);
        sched = std::make_unique<Scheduler>(*sim, "sched",
                                            CpuTopology{}, cfg);
        bg = std::make_unique<BackgroundLoad>(*sim, "bg", *sched, bp);
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Scheduler> sched;
    std::unique_ptr<BackgroundLoad> bg;
};

TEST_F(BackgroundTest, Centos7MixSpawns)
{
    build();
    // 4 llvmpipe + 2 lttng + 2 sshd + 4 kworkers.
    EXPECT_EQ(bg->taskIds().size(), 12u);
}

TEST_F(BackgroundTest, BurstsExecute)
{
    build();
    sched->start();
    bg->start();
    sim->run(msec(500));
    EXPECT_GT(bg->bursts(), 50u);
    Tick total_cpu = 0;
    for (TaskId t : bg->taskIds())
        total_cpu += sched->taskStats(t).cpuTime;
    EXPECT_GT(total_cpu, msec(20));
}

TEST_F(BackgroundTest, NoneMeansSilence)
{
    build({}, BackgroundParams::none());
    sched->start();
    bg->start();
    sim->run(msec(200));
    EXPECT_EQ(bg->bursts(), 0u);
}

TEST_F(BackgroundTest, IsolcpusKeepsBackgroundOut)
{
    KernelConfig cfg;
    for (unsigned c = 4; c <= 39; ++c)
        if (c <= 19 || c >= 24)
            cfg.isolcpus.insert(c); // 4-19,24-39
    build(cfg);
    sched->start();
    bg->start();
    sim->run(msec(500));
    EXPECT_GT(bg->bursts(), 10u);
    for (TaskId t : bg->taskIds()) {
        unsigned cpu = sched->taskCpu(t);
        EXPECT_EQ(cfg.isolcpus.count(cpu), 0u)
            << "background task on isolated cpu" << cpu;
    }
}

TEST_F(BackgroundTest, BackgroundLandsOnIoCpusWithoutIsolation)
{
    // Default kernel: background tasks spread everywhere, including
    // the CPUs an operator intended for I/O -- Section IV-C's finding.
    build();
    sched->start();
    bg->start();
    sim->run(sec(2));
    std::set<unsigned> used;
    for (TaskId t : bg->taskIds())
        used.insert(sched->taskCpu(t));
    // The zoo has wandered across several CPUs, not just one or two.
    EXPECT_GE(used.size(), 4u);
    bool beyond_reserved = false;
    for (unsigned cpu : used)
        if ((cpu >= 4 && cpu <= 19) || (cpu >= 24 && cpu <= 39))
            beyond_reserved = true;
    EXPECT_TRUE(beyond_reserved);
}

} // namespace
