/**
 * @file
 * Integration tests: the experiment runner end to end, and the
 * paper's qualitative results as invariants -- the tuning ladder
 * must improve tail latency and convergence in the right order, the
 * SMART spikes must appear/disappear with firmware, and the geometry
 * sweep must be insensitive at low utilisation.
 *
 * These use a reduced array (fewer SSDs / shorter runs) so the whole
 * file stays test-suite fast; the bench harnesses run paper scale.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/report.hh"
#include "obs/span_log.hh"
#include "sim/logging.hh"

using namespace afa::core;
using afa::sim::msec;
using afa::sim::usec;

namespace {

class ExperimentTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    ExperimentParams
    baseParams(TuningProfile profile)
    {
        ExperimentParams p;
        p.profile = profile;
        p.ssds = 16;
        p.runtime = msec(800);
        p.smartPeriod = msec(300);
        p.irqBalanceInterval = msec(300);
        p.seed = 2026;
        return p;
    }

    static double
    maxIdx(const afa::stats::LadderAggregate &agg, std::size_t p)
    {
        return agg.meanUs[p];
    }
};

TEST_F(ExperimentTest, ProducesPerDeviceSummaries)
{
    auto result = ExperimentRunner::run(baseParams(
        TuningProfile::Default));
    ASSERT_EQ(result.perDevice.size(), 16u);
    for (const auto &dev : result.perDevice) {
        EXPECT_GT(dev.samples, 1000u);
        EXPECT_GT(dev.meanUs, 20.0);
        EXPECT_LT(dev.meanUs, 80.0);
    }
    EXPECT_GT(result.totalIos, 16u * 1000u);
    EXPECT_GT(result.aggregateGBps, 0.1);
    EXPECT_EQ(result.runs, 1u);
    EXPECT_TRUE(result.bootCmdline.empty());
}

TEST_F(ExperimentTest, TuningLadderImprovesTailInOrder)
{
    const std::size_t kMax = afa::stats::NinesLadder::kPoints - 1;
    auto def =
        ExperimentRunner::run(baseParams(TuningProfile::Default));
    auto chrt = ExperimentRunner::run(baseParams(TuningProfile::Chrt));
    auto irq = ExperimentRunner::run(
        baseParams(TuningProfile::IrqAffinity));
    auto fw = ExperimentRunner::run(
        baseParams(TuningProfile::ExpFirmware));

    // Fig. 7: chrt removes the millisecond scheduler tail. The
    // default host's 900 us bound holds on this seed (2026); at this
    // scale the tail is rare, and seeds 3, 7, 12 and 15 stay under
    // 800 us. tests/paper/ checks the claims over 16 seeds.
    EXPECT_GT(def.aggregate.maxUs[kMax], 900.0);
    EXPECT_LT(chrt.aggregate.maxUs[kMax],
              def.aggregate.maxUs[kMax]);
    // Fig. 9: with pinned IRQs the max is the SMART stall (~550 us).
    EXPECT_GT(irq.aggregate.meanUs[kMax], 300.0);
    EXPECT_LT(irq.aggregate.meanUs[kMax], 700.0);
    // Fig. 12 bottom: convergence improves monotonically at p99.9.
    EXPECT_LT(irq.aggregate.stddevUs[2],
              def.aggregate.stddevUs[2] + 1.0);
    // Fig. 11: experimental firmware kills the SMART tail.
    EXPECT_LT(fw.aggregate.meanUs[kMax],
              irq.aggregate.meanUs[kMax] / 3.0);
    EXPECT_LT(fw.aggregate.maxUs[kMax], 150.0);
}

TEST_F(ExperimentTest, SmartSpikesVisibleInScatter)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.scatterDevices = 8;
    auto result = ExperimentRunner::run(params);
    EXPECT_GT(result.scatter.size(), 10000u);
    auto clusters =
        result.scatter.clusters(usec(150), msec(20));
    // 8 devices x ~2-3 SMART windows in 800 ms at a 300 ms period.
    EXPECT_GT(clusters.size(), 4u);
}

TEST_F(ExperimentTest, GeometryVariantsAgreeWhenTuned)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.variant = GeometryVariant::FourPerCore;
    auto four = ExperimentRunner::run(params);
    params.variant = GeometryVariant::OnePerCore;
    auto one = ExperimentRunner::run(params);
    EXPECT_EQ(one.runs, 1u); // 16 SSDs fit one 1-per-core run
    // Fig. 14: average latency within a microsecond or two.
    EXPECT_NEAR(four.aggregate.meanUs[0], one.aggregate.meanUs[0],
                3.0);
}

TEST_F(ExperimentTest, SingleThreadVariantRunsPerDevice)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.ssds = 4;
    params.runtime = msec(300);
    params.variant = GeometryVariant::SingleThread;
    auto result = ExperimentRunner::run(params);
    EXPECT_EQ(result.runs, 4u);
    for (const auto &dev : result.perDevice)
        EXPECT_GT(dev.samples, 500u);
}

TEST_F(ExperimentTest, SameSeedSameResult)
{
    auto a = ExperimentRunner::run(baseParams(TuningProfile::Chrt));
    auto b = ExperimentRunner::run(baseParams(TuningProfile::Chrt));
    ASSERT_EQ(a.perDevice.size(), b.perDevice.size());
    for (std::size_t i = 0; i < a.perDevice.size(); ++i) {
        EXPECT_EQ(a.perDevice[i].samples, b.perDevice[i].samples);
        EXPECT_DOUBLE_EQ(a.perDevice[i].maxUs, b.perDevice[i].maxUs);
    }
    EXPECT_EQ(a.totalIos, b.totalIos);
}

TEST_F(ExperimentTest, DifferentSeedsDiffer)
{
    auto a = ExperimentRunner::run(baseParams(TuningProfile::Chrt));
    auto p = baseParams(TuningProfile::Chrt);
    p.seed = 9999;
    auto b = ExperimentRunner::run(p);
    EXPECT_NE(a.totalIos, b.totalIos);
}

TEST_F(ExperimentTest, ReportsRenderNonEmpty)
{
    auto result =
        ExperimentRunner::run(baseParams(TuningProfile::Default));
    EXPECT_GT(perDeviceTable(result).rows(), 0u);
    EXPECT_EQ(envelopeTable(result).rows(), 7u);
    EXPECT_FALSE(describeExperiment(result).empty());
    Geometry geo(afa::host::CpuTopology{}, 16);
    auto table = geometryTable(
        geo, {GeometryVariant::FourPerCore,
              GeometryVariant::SingleThread});
    EXPECT_EQ(table.rows(), 2u);
}

TEST_F(ExperimentTest, OpenLoopRunDescribesItsArrivalShape)
{
    // An open-loop run never runs the FIO job, so its workload line
    // names the arrival shape; its streams keep the profile's
    // SCHED_FIFO priority.
    auto p = baseParams(TuningProfile::Chrt);
    p.ssds = 2;
    p.runtime = msec(20);
    afa::workload::OpenLoopParams ol;
    ol.arrival.ratePerSec = 20000.0;
    ol.arrival.burstFactor = 3.0;
    ol.readFraction = 0.7;
    ol.zipfTheta = 0.5;
    ol.streams = 2;
    p.openLoop = ol;
    const std::string text = describeExperiment(ExperimentRunner::run(p));
    EXPECT_NE(text.find("\nworkload: open-loop rate=20000/s read=70% "
                        "zipf=0.5 burst=3 streams=2 bs=4096 "
                        "chrt -f 99\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("iodepth"), std::string::npos) << text;
}

TEST(TestbedTest, ZeroPeriodsKeepTheDefaults)
{
    ExperimentParams p;
    p.ssds = 2;
    p.smartPeriod = 0;
    p.irqBalanceInterval = 0;
    Geometry geometry(afa::host::CpuTopology(p.topology), p.ssds);
    const TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::Default, geometry);
    Testbed defaults(p, tuning, 1);
    const AfaSystemParams &sys = defaults.system().params();
    EXPECT_EQ(sys.firmware.smart.period,
              afa::nvme::SmartConfig{}.period);
    EXPECT_EQ(sys.kernel.irq.irqBalanceInterval,
              afa::host::IrqParams{}.irqBalanceInterval);
    // The defaults run: SMART and irqbalance reschedule themselves
    // at their daemon cadence instead of livelocking.
    defaults.start();
    defaults.sim().run(msec(200));
    EXPECT_EQ(defaults.sim().now(), msec(200));

    p.smartPeriod = msec(300);
    p.irqBalanceInterval = msec(200);
    Testbed scaled(p, tuning, 1);
    EXPECT_EQ(scaled.system().params().firmware.smart.period,
              msec(300));
    EXPECT_EQ(scaled.system().params().kernel.irq.irqBalanceInterval,
              msec(200));
}

/** The span log of one small Testbed run and what it collected. */
struct SpanLogRun
{
    std::size_t capacity = 0;
    std::uint64_t recorded = 0;
    ExperimentResult result;
};

/** Twenty reads over two SSDs in 20 ms on a Testbed built from @p p. */
SpanLogRun
runTwentyReads(const ExperimentParams &p)
{
    Geometry geometry(afa::host::CpuTopology(p.topology), p.ssds);
    Testbed bed(p, TuningConfig::forProfile(TuningProfile::Default,
                                            geometry),
                1);
    SpanLogRun out;
    if (bed.spanLog() == nullptr) {
        ADD_FAILURE() << "no span log";
        return out;
    }
    out.capacity = bed.spanLog()->capacity();
    bed.start();
    for (unsigned i = 0; i < 20; ++i)
        bed.sim().scheduleAt(msec(1) + i * usec(100), [&bed, i] {
            afa::workload::IoRequest req;
            req.device = i % 2;
            req.lba = i;
            bed.system().ioEngine().submit(
                0, req, [](const afa::workload::IoResult &) {});
        });
    bed.sim().run(msec(20));
    out.recorded = bed.spanLog()->recorded();
    bed.collect(out.result);
    return out;
}

TEST(TestbedTest, SpanLogHoldsARingOnlyWhenSpansAreKept)
{
    // Tracing or telemetry builds the span log; attribution and
    // telemetry read each span as it is recorded, so only the run
    // that keeps its spans holds a ring.
    ExperimentParams p;
    p.ssds = 2;
    p.traceCapacity = 1 << 16;

    ExperimentParams telemetry_only = p;
    telemetry_only.telemetryWindow = msec(10);
    const SpanLogRun telemetry = runTwentyReads(telemetry_only);
    EXPECT_EQ(telemetry.capacity, 0u);
    EXPECT_GT(telemetry.recorded, 20u);
    EXPECT_FALSE(telemetry.result.telemetry.stages.empty());
    EXPECT_TRUE(telemetry.result.attribution.empty());

    ExperimentParams traced_params = p;
    traced_params.traceMask = afa::obs::kAllCategories;
    const SpanLogRun traced = runTwentyReads(traced_params);
    EXPECT_EQ(traced.capacity, 0u);
    EXPECT_GT(traced.recorded, 20u);
    EXPECT_FALSE(traced.result.attribution.empty());
    EXPECT_EQ(traced.result.systemMetrics.counter("obs.spans_recorded"),
              traced.recorded);
    EXPECT_EQ(traced.result.spanDrops, 0u);
    EXPECT_TRUE(traced.result.spans.empty());

    ExperimentParams kept_params = traced_params;
    kept_params.keepSpans = true;
    const SpanLogRun kept = runTwentyReads(kept_params);
    EXPECT_EQ(kept.capacity, p.traceCapacity);
    EXPECT_EQ(kept.recorded, traced.recorded);
    EXPECT_EQ(kept.result.spans.size(), kept.recorded);
}

} // namespace
