/**
 * @file
 * FioThread tests against a mock I/O engine: closed-loop behaviour,
 * latency accounting, queue depth, runtime stop, request patterns,
 * IPI cost for remote completions, and scatter logging.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/fio_thread.hh"

using namespace afa::workload;
using afa::host::CpuMask;
using afa::host::CpuTopology;
using afa::host::CpuTopologyParams;
using afa::host::KernelConfig;
using afa::host::Scheduler;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

/** A device that completes after a fixed latency on a fixed CPU. */
class MockEngine : public IoEngine
{
  public:
    MockEngine(Simulator &simulator, Tick latency,
               unsigned handler_cpu)
        : sim(simulator), deviceLatency(latency),
          handlerCpu(handler_cpu)
    {
    }

    void
    submit(unsigned cpu, const IoRequest &request,
           CompleteFn on_complete) override
    {
        (void)cpu;
        requests.push_back(request);
        ++outstanding;
        maxOutstanding = std::max(maxOutstanding, outstanding);
        sim.scheduleAfter(deviceLatency,
                          [this, fn = std::move(on_complete)] {
                              --outstanding;
                              fn(IoResult{handlerCpu,
                                          afa::nvme::Status::Success});
                          });
    }

    std::uint64_t
    deviceBlocks(unsigned) const override
    {
        return 262144; // 1 GiB
    }

    Simulator &sim;
    Tick deviceLatency;
    unsigned handlerCpu;
    unsigned outstanding = 0;
    unsigned maxOutstanding = 0;
    std::vector<IoRequest> requests;
};

class FioThreadTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    build(Tick device_latency = usec(20), unsigned handler_cpu = 0)
    {
        CpuTopologyParams tp;
        tp.sockets = 1;
        tp.coresPerSocket = 2;
        tp.threadsPerCore = 1;
        tp.uplinkSocket = 0;
        KernelConfig cfg;
        cfg.sched.rcuCallbackInterval = sec(10000);
        sim = std::make_unique<Simulator>(7);
        sched = std::make_unique<Scheduler>(*sim, "sched",
                                            CpuTopology(tp), cfg);
        engine = std::make_unique<MockEngine>(*sim, device_latency,
                                              handler_cpu);
    }

    FioThread &
    spawn(const std::string &jobspec, Tick runtime = sec(120))
    {
        FioJob job = FioJob::parse(jobspec);
        job.runtime = runtime;
        job.cpusAllowed = CpuMask(1) << 0;
        threads.push_back(std::make_unique<FioThread>(
            *sim, "fio0", *sched, *engine, 0, job));
        return *threads.back();
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Scheduler> sched;
    std::unique_ptr<MockEngine> engine;
    std::vector<std::unique_ptr<FioThread>> threads;
};

TEST_F(FioThreadTest, ClosedLoopCompletesManyIos)
{
    build(usec(20));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(50));
    t.start(0);
    sim->run(msec(60));
    // Per IO: ~20 us device + submit/reap work + switches ~ 27 us.
    EXPECT_GT(t.stats().completed, 1500u);
    EXPECT_LT(t.stats().completed, 2600u);
    EXPECT_EQ(t.stats().completed, t.histogram().count());
    EXPECT_TRUE(t.finished());
}

TEST_F(FioThreadTest, LatencyIsDevicePlusHostPath)
{
    build(usec(20));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(10));
    t.start(0);
    sim->run(msec(20));
    double mean_us = t.histogram().mean() / afa::sim::kUsec;
    // 20 us device + reap work + context switch, no queueing.
    EXPECT_GT(mean_us, 21.0);
    EXPECT_LT(mean_us, 28.0);
    // Tight distribution: nothing else runs.
    EXPECT_LT(afa::sim::toUsec(t.histogram().max()), 35.0);
}

TEST_F(FioThreadTest, RemoteHandlerCpuPaysIpi)
{
    build(usec(20), 0);
    auto &local = spawn("rw=randread bs=4k iodepth=1", msec(10));
    local.start(0);
    sim->run(msec(20));

    build(usec(20), 1); // handler on cpu1, thread pinned to cpu0
    auto &remote = spawn("rw=randread bs=4k iodepth=1", msec(10));
    remote.start(0);
    sim->run(msec(20));

    double local_us = local.histogram().mean() / afa::sim::kUsec;
    double remote_us = remote.histogram().mean() / afa::sim::kUsec;
    EXPECT_GT(remote_us, local_us + 0.5);
}

TEST_F(FioThreadTest, QueueDepthIsRespected)
{
    build(usec(100));
    auto &t = spawn("rw=randread bs=4k iodepth=8", msec(20));
    t.start(0);
    sim->run(msec(40));
    EXPECT_EQ(engine->maxOutstanding, 8u);
    EXPECT_TRUE(t.finished());
}

TEST_F(FioThreadTest, Qd1NeverOverlaps)
{
    build(usec(50));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(10));
    t.start(0);
    sim->run(msec(20));
    EXPECT_EQ(engine->maxOutstanding, 1u);
}

TEST_F(FioThreadTest, StopsSubmittingAtRuntime)
{
    build(usec(20));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(5));
    t.start(0);
    sim->run(msec(100));
    auto completed = t.stats().completed;
    sim->run(msec(200));
    EXPECT_EQ(t.stats().completed, completed);
    EXPECT_TRUE(t.finished());
}

TEST_F(FioThreadTest, StartDelayHonoured)
{
    build(usec(20));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(5));
    t.start(msec(10));
    sim->run(msec(5));
    EXPECT_EQ(t.stats().submitted, 0u);
    sim->run(msec(30));
    EXPECT_GT(t.stats().submitted, 0u);
}

TEST_F(FioThreadTest, SequentialLbasAdvance)
{
    build(usec(20));
    auto &t = spawn("rw=read bs=128k iodepth=1", msec(2));
    t.start(0);
    sim->run(msec(10));
    ASSERT_GT(engine->requests.size(), 3u);
    for (std::size_t i = 1; i < engine->requests.size(); ++i)
        EXPECT_EQ(engine->requests[i].lba,
                  engine->requests[i - 1].lba + 32);
    (void)t;
}

TEST_F(FioThreadTest, RandomLbasStayInRange)
{
    build(usec(20));
    auto &t = spawn(
        "rw=randread bs=4k iodepth=1 offset=4m size=8m", msec(5));
    t.start(0);
    sim->run(msec(10));
    ASSERT_GT(engine->requests.size(), 10u);
    bool varied = false;
    for (const auto &req : engine->requests) {
        EXPECT_GE(req.lba, 1024u);
        EXPECT_LT(req.lba, 1024u + 2048u);
        if (req.lba != engine->requests[0].lba)
            varied = true;
    }
    EXPECT_TRUE(varied);
    (void)t;
}

TEST_F(FioThreadTest, MixedModeIssuesBothOps)
{
    build(usec(20));
    auto &t = spawn(
        "rw=randrw rwmixread=70 bs=4k iodepth=1", msec(20));
    t.start(0);
    sim->run(msec(40));
    unsigned reads = 0, writes = 0;
    for (const auto &req : engine->requests) {
        if (req.op == afa::nvme::Op::Read)
            ++reads;
        else
            ++writes;
    }
    EXPECT_GT(reads, writes);
    EXPECT_GT(writes, 0u);
    EXPECT_EQ(t.stats().readBytes, reads * 4096u);
    EXPECT_EQ(t.stats().writeBytes, writes * 4096u);
}

TEST_F(FioThreadTest, ThinkTimeThrottles)
{
    build(usec(20));
    auto &fast = spawn("rw=randread bs=4k iodepth=1", msec(20));
    fast.start(0);
    sim->run(msec(50));
    auto fast_count = fast.stats().completed;

    build(usec(20));
    auto &slow = spawn(
        "rw=randread bs=4k iodepth=1 thinktime=100us", msec(20));
    slow.start(0);
    sim->run(msec(50));
    EXPECT_LT(slow.stats().completed, fast_count / 2);
}

TEST_F(FioThreadTest, ScatterLogCollectsSamples)
{
    build(usec(20));
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(5));
    afa::stats::ScatterLog log;
    t.attachScatterLog(&log);
    t.start(0);
    sim->run(msec(10));
    EXPECT_EQ(log.size(), t.stats().completed);
}

TEST_F(FioThreadTest, RangeBeyondDeviceIsFatal)
{
    build();
    EXPECT_THROW(
        spawn("rw=randread bs=4k iodepth=1 offset=2g size=1m"),
        afa::sim::SimError);
}

TEST_F(FioThreadTest, DoubleStartPanics)
{
    build();
    auto &t = spawn("rw=randread bs=4k iodepth=1", msec(1));
    t.start(0);
    EXPECT_THROW(t.start(0), afa::sim::SimError);
}

} // namespace
