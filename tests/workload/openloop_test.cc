/**
 * @file
 * OpenLoopEngine and arrival-generator tests: Poisson/bursty gap
 * statistics, zipfian device skew, exact backlog/drop accounting at
 * and below saturation against a mock I/O engine, mixed-op request
 * streams, and same-seed determinism.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/openloop.hh"

using namespace afa::workload;
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

/** Mean and coefficient of variation of a gap sample. */
struct GapStats
{
    double mean = 0.0;
    double cv = 0.0;
};

GapStats
drawGaps(const ArrivalParams &params, std::size_t n,
         std::uint64_t seed)
{
    // Tests may own an Rng directly; production arrival code must
    // not (the detlint arrival-rng rule covers src/ and bench/).
    afa::sim::Rng rng(seed);
    ArrivalProcess proc(params);
    double sum = 0.0, sumsq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double gap = static_cast<double>(proc.nextGap(rng));
        sum += gap;
        sumsq += gap * gap;
    }
    GapStats out;
    out.mean = sum / static_cast<double>(n);
    const double var =
        sumsq / static_cast<double>(n) - out.mean * out.mean;
    out.cv = std::sqrt(std::max(var, 0.0)) / out.mean;
    return out;
}

TEST(ArrivalProcessTest, PoissonGapsMatchRateWithUnitCv)
{
    ArrivalParams p;
    p.ratePerSec = 100000.0;
    const auto s = drawGaps(p, 200000, 42);
    // Mean gap = 1e9 / rate ns; exponential gaps have CV 1.
    EXPECT_NEAR(s.mean, 10000.0, 200.0);
    EXPECT_NEAR(s.cv, 1.0, 0.03);
}

TEST(ArrivalProcessTest, BurstyKeepsMeanRateWithHigherCv)
{
    ArrivalParams p;
    p.ratePerSec = 100000.0;
    p.burstFactor = 8.0;
    p.onMean = msec(1);
    const auto s = drawGaps(p, 200000, 42);
    // Duty cycling preserves the long-run rate but the on/off
    // modulation spreads the gap distribution well past exponential.
    EXPECT_NEAR(s.mean, 10000.0, 500.0);
    EXPECT_GT(s.cv, 1.3);
}

TEST(ArrivalProcessTest, BurstFactorOneDegeneratesToPoisson)
{
    ArrivalParams p;
    p.ratePerSec = 100000.0;
    p.burstFactor = 1.0;
    const auto s = drawGaps(p, 100000, 7);
    EXPECT_NEAR(s.mean, 10000.0, 300.0);
    EXPECT_NEAR(s.cv, 1.0, 0.05);
}

TEST(ZipfGeneratorTest, ThetaZeroIsUniform)
{
    afa::sim::Rng rng(99);
    ZipfGenerator zipf(16, 0.0);
    std::array<std::uint64_t, 16> counts{};
    for (int i = 0; i < 160000; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 16u);
        ++counts[v];
    }
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, 8000u);
        EXPECT_LT(c, 12000u);
    }
}

TEST(ZipfGeneratorTest, HighThetaFavoursRankZero)
{
    afa::sim::Rng rng(99);
    ZipfGenerator zipf(16, 0.99);
    std::array<std::uint64_t, 16> counts{};
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 16u);
        ++counts[v];
    }
    for (std::size_t r = 1; r < counts.size(); ++r)
        EXPECT_GT(counts[0], counts[r]) << "rank " << r;
    EXPECT_GT(counts[0], 5 * counts[15]);
}

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
        sim.scheduleAfter(deviceLatency,
                          [this, fn = std::move(on_complete)] {
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
    std::vector<IoRequest> requests;
};

class OpenLoopEngineTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    void
    build(Tick device_latency = usec(20), unsigned handler_cpu = 0,
          std::uint64_t seed = 7)
    {
        CpuTopologyParams tp;
        tp.sockets = 1;
        tp.coresPerSocket = 2;
        tp.threadsPerCore = 1;
        tp.uplinkSocket = 0;
        KernelConfig cfg;
        cfg.sched.rcuCallbackInterval = sec(10000);
        sim = std::make_unique<Simulator>(seed);
        sched = std::make_unique<Scheduler>(*sim, "sched",
                                            CpuTopology(tp), cfg);
        mock = std::make_unique<MockEngine>(*sim, device_latency,
                                            handler_cpu);
    }

    OpenLoopEngine &
    spawn(const OpenLoopParams &params, unsigned devices = 8)
    {
        engine = std::make_unique<OpenLoopEngine>(
            *sim, "ol0", *sched, *mock, devices, params);
        return *engine;
    }

    static OpenLoopParams
    baseParams()
    {
        OpenLoopParams p;
        p.arrival.ratePerSec = 50000.0;
        p.streams = 2;
        p.cpus = {0, 1};
        p.duration = msec(20);
        return p;
    }

    static void
    expectExactAccounting(const OpenLoopStreamStats &s)
    {
        EXPECT_EQ(s.arrivals,
                  s.submitted + s.dropped + s.finalBacklog);
        EXPECT_EQ(s.submitted, s.completed + s.inflightAtEnd);
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Scheduler> sched;
    std::unique_ptr<MockEngine> mock;
    std::unique_ptr<OpenLoopEngine> engine;
};

TEST_F(OpenLoopEngineTest, AccountingExactAfterDrain)
{
    build(usec(20));
    auto &eng = spawn(baseParams());
    eng.start(0);
    sim->run(msec(200));

    EXPECT_TRUE(eng.finished());
    const auto totals = eng.totals();
    // 50k ops/s over 20 ms ~ 1000 arrivals.
    EXPECT_GT(totals.arrivals, 700u);
    EXPECT_LT(totals.arrivals, 1300u);
    EXPECT_EQ(totals.dropped, 0u);
    EXPECT_EQ(totals.inflightAtEnd, 0u);
    expectExactAccounting(totals);
    for (const auto &s : eng.streamStats())
        expectExactAccounting(s);
    // Successful completions all land in the response histogram.
    EXPECT_EQ(totals.errors, 0u);
    EXPECT_EQ(eng.histogram().count(), totals.completed);
}

TEST_F(OpenLoopEngineTest, SaturationShedsLoadWithExactCounts)
{
    build(usec(20));
    auto p = baseParams();
    // One stream offered 2M ops/s, about 6x what its 3 us of submit
    // plus reap CPU per op can clear: the backlog caps at maxBacklog
    // and the rest of the arrivals must be counted as drops, never
    // lost.
    p.streams = 1;
    p.cpus = {0};
    p.arrival.ratePerSec = 2e6;
    p.maxBacklog = 4;
    auto &eng = spawn(p);
    eng.start(0);
    sim->run(msec(400));

    EXPECT_TRUE(eng.finished());
    const auto totals = eng.totals();
    EXPECT_GT(totals.dropped, 0u);
    EXPECT_GT(totals.arrivals, totals.submitted);
    EXPECT_LE(totals.finalBacklog, 4u);
    EXPECT_EQ(totals.backlogPeak, 4u);
    EXPECT_EQ(totals.inflightAtEnd, 0u);
    expectExactAccounting(totals);
}

TEST_F(OpenLoopEngineTest, BalanceCheckCatchesADoctoredStream)
{
    // Stopped mid-run past saturation, so drops, backlog and in-flight
    // IOs all take part; result() checks the same balances.
    build(usec(20));
    auto p = baseParams();
    p.arrival.ratePerSec = 4e6;
    p.maxBacklog = 4;
    auto &eng = spawn(p);
    eng.start(0);
    sim->run(msec(10));
    auto streams = eng.streamStats();
    EXPECT_NO_THROW(checkOpenLoopBalance(streams));
    EXPECT_NO_THROW(eng.result());

    ASSERT_GT(streams[1].dropped, 0u);
    --streams[1].dropped; // one drop too few
    try {
        checkOpenLoopBalance(streams);
        FAIL() << "a stream one drop short passed";
    } catch (const afa::sim::SimError &e) {
        EXPECT_EQ(e.message.rfind("panic: open-loop stream 1 out of "
                                  "balance: arrivals ",
                                  0),
                  0u)
            << e.message;
        EXPECT_NE(e.message.find(
                      afa::sim::strfmt("dropped %llu,",
                                       (unsigned long long)streams[1]
                                           .dropped)),
                  std::string::npos)
            << e.message;
    }
    ++streams[1].dropped;
    ++streams[0].completed; // a completion nothing submitted
    EXPECT_THROW(checkOpenLoopBalance(streams), afa::sim::SimError);
}

TEST_F(OpenLoopEngineTest, MixedOpsFollowReadFraction)
{
    build(usec(20));
    auto p = baseParams();
    p.readFraction = 0.7;
    auto &eng = spawn(p);
    eng.start(0);
    sim->run(msec(200));

    unsigned reads = 0, writes = 0;
    for (const auto &req : mock->requests) {
        if (req.op == afa::nvme::Op::Read)
            ++reads;
        else
            ++writes;
    }
    EXPECT_GT(reads, writes);
    EXPECT_GT(writes, 0u);
    const auto totals = eng.totals();
    EXPECT_EQ(totals.readBytes, reads * 4096ull);
    EXPECT_EQ(totals.writeBytes, writes * 4096ull);
}

TEST_F(OpenLoopEngineTest, ZipfSkewsDeviceSelection)
{
    build(usec(20));
    auto p = baseParams();
    p.zipfTheta = 0.9;
    auto &eng = spawn(p, 8);
    eng.start(0);
    sim->run(msec(200));

    std::array<unsigned, 8> perDevice{};
    for (const auto &req : mock->requests) {
        ASSERT_LT(req.device, 8u);
        ++perDevice[req.device];
    }
    // Rank 0 is the hot spot under theta 0.9.
    EXPECT_GT(perDevice[0], 2 * perDevice[7]);
    EXPECT_GT(eng.deviceHistogram(0).count(),
              eng.deviceHistogram(7).count());
    (void)eng;
}

TEST_F(OpenLoopEngineTest, SameSeedIsBitIdentical)
{
    const auto run = [this] {
        build(usec(20), 1, 20260808);
        auto p = baseParams();
        p.arrival.burstFactor = 4.0;
        p.readFraction = 0.7;
        p.zipfTheta = 0.9;
        auto &eng = spawn(p);
        eng.start(0);
        sim->run(msec(200));
        return eng.result();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.totals.arrivals, b.totals.arrivals);
    EXPECT_EQ(a.totals.submitted, b.totals.submitted);
    EXPECT_EQ(a.totals.completed, b.totals.completed);
    EXPECT_EQ(a.totals.readBytes, b.totals.readBytes);
    EXPECT_EQ(a.totals.writeBytes, b.totals.writeBytes);
    ASSERT_EQ(a.perStream.size(), b.perStream.size());
    for (std::size_t s = 0; s < a.perStream.size(); ++s) {
        EXPECT_EQ(a.perStream[s].arrivals, b.perStream[s].arrivals);
        EXPECT_EQ(a.perStream[s].completed,
                  b.perStream[s].completed);
    }
    EXPECT_EQ(a.responseHist.count(), b.responseHist.count());
    EXPECT_EQ(a.responseHist.min(), b.responseHist.min());
    EXPECT_EQ(a.responseHist.max(), b.responseHist.max());
    EXPECT_EQ(a.responseHist.quantile(0.99),
              b.responseHist.quantile(0.99));
}

TEST_F(OpenLoopEngineTest, ResultMergeAddsReplicas)
{
    build(usec(20));
    auto &eng = spawn(baseParams());
    eng.start(0);
    sim->run(msec(200));
    const auto one = eng.result();

    auto merged = one;
    merged.merge(one);
    EXPECT_EQ(merged.totals.arrivals, 2 * one.totals.arrivals);
    EXPECT_EQ(merged.totals.completed, 2 * one.totals.completed);
    EXPECT_EQ(merged.responseHist.count(),
              2 * one.responseHist.count());
    EXPECT_EQ(merged.measuredTicks, 2 * one.measuredTicks);
    // Rates are per merged second, so they stay comparable.
    EXPECT_NEAR(merged.offeredPerSec(), one.offeredPerSec(), 1e-9);
}

TEST_F(OpenLoopEngineTest, DoubleStartPanics)
{
    build();
    auto &eng = spawn(baseParams());
    eng.start(0);
    EXPECT_THROW(eng.start(0), afa::sim::SimError);
}

TEST_F(OpenLoopEngineTest, RejectsBrokenConfigs)
{
    build();
    auto noStreams = baseParams();
    noStreams.streams = 0;
    EXPECT_THROW(spawn(noStreams), afa::sim::SimError);

    auto noCpus = baseParams();
    noCpus.cpus.clear();
    EXPECT_THROW(spawn(noCpus), afa::sim::SimError);

    auto badMix = baseParams();
    badMix.readFraction = 1.5;
    EXPECT_THROW(spawn(badMix), afa::sim::SimError);

    // NaN and infinite numbers fail the range checks too.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // 1e-12 ops/s is finite but its exponential gaps overflow Tick.
    for (double rate : {nan, inf, 1e-12}) {
        auto p = baseParams();
        p.arrival.ratePerSec = rate;
        EXPECT_THROW(spawn(p), afa::sim::SimError) << rate;
    }
    for (double burst : {nan, inf, 1e300}) {
        // 1e300 is finite but shrinks the on-phase gap at this rate
        // below the smallest double.
        auto p = baseParams();
        p.arrival.ratePerSec = 1e300;
        p.arrival.burstFactor = burst;
        EXPECT_THROW(spawn(p), afa::sim::SimError) << burst;
    }
    // A finite burst factor can still stretch off phases past Tick.
    auto longOff = baseParams();
    longOff.arrival.burstFactor = 1e18;
    EXPECT_THROW(spawn(longOff), afa::sim::SimError);
    auto nanMix = baseParams();
    nanMix.readFraction = nan;
    EXPECT_THROW(spawn(nanMix), afa::sim::SimError);
    auto nanZipf = baseParams();
    nanZipf.zipfTheta = nan;
    EXPECT_THROW(spawn(nanZipf), afa::sim::SimError);
}

} // namespace
