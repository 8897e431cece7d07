/**
 * @file
 * Queueing-theory validation: the controller's command pipeline
 * against M/D/1.
 *
 * Poisson arrivals of FOB reads (blocks never written, which never
 * touch NAND) go straight into one nvme::Controller with SMART off.
 * Every read first passes the command pipeline, a FIFO server whose
 * service time is the constant D = readProcTime (6.25 us), so under
 * Poisson arrivals the pipeline is an M/D/1 queue. With offered load
 * rho = lambda D, Pollaczek-Khinchine with zero service variance
 * gives
 *
 *   mean wait    W = rho D / (2 (1 - rho))
 *   P(wait > 0)  = rho
 *
 * The wait is read from the ControllerQueue attribution: the
 * controller records one span per read that waited, lasting exactly
 * its wait, so total/arrivals is the mean wait and count/arrivals the
 * share that waited.
 *
 * Tolerances come from seeds 1-12 at 200k arrivals each. The mean
 * wait landed within 1.5%, 2.1% and 6.3% of W at rho 0.3, 0.6 and 0.9
 * (0.4%, 0.7% and 3.7% on the listed seeds 1-6), and P(wait > 0)
 * within 0.005 of rho. A pipeline seeded with a 6.5 us service, fed
 * the same arrival rates, read +8.4% to +11%, +13% to +16% and +64%
 * to +97% above W, so each mean-wait bound sits between the two
 * spreads. Its waited share is only 0.010-0.014 above rho at 0.3, so
 * the mean-wait bound alone must reject it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>

#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "obs/span_log.hh"
#include "sim/simulator.hh"
#include "workload/arrival.hh"

using afa::sim::Tick;

namespace {

/** The pipeline's service time, D (Table I's 160k IOPS cap). */
constexpr Tick kPipeline = afa::sim::nsec(6250);

/** Arrivals per run. */
constexpr std::uint64_t kArrivals = 200000;

/** Seeds every load runs on. */
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};

/** Largest |P(wait > 0) - rho| accepted. */
constexpr double kWaitedShareTolerance = 0.01;

/** One load point and its bound on the mean wait. */
struct Load
{
    double rho;
    /** Largest |W_measured / W_md1 - 1| accepted. */
    double meanWaitTolerance;
};

/** Print a load by its rho, not as raw bytes in the test's name. */
void
PrintTo(const Load &load, std::ostream *os)
{
    *os << "rho " << load.rho;
}

/** What one run measured at the pipeline. */
struct PipelineWait
{
    double meanWaitNs = 0.0;
    double waitedShare = 0.0;
};

/**
 * Feed kArrivals Poisson FOB reads at rate rho / kPipeline into one
 * controller whose pipeline takes @p pipeline per command, and read
 * the pipeline wait from the attribution.
 */
PipelineWait
measure(std::uint64_t seed, double rho, Tick pipeline)
{
    afa::sim::Simulator sim(seed);
    afa::nand::NandParams nand_params;
    nand_params.channels = 4;
    nand_params.diesPerChannel = 4;
    nand_params.pagesPerBlock = 16;
    nand_params.blocksPerDie = 64;
    afa::nand::NandArray nand(sim, "nand", nand_params);
    afa::nvme::FtlParams ftl;
    ftl.logicalBlocks = 8192;
    afa::nvme::FirmwareConfig fw;
    fw.smart.enabled = false;
    fw.readProcTime = pipeline;
    afa::nvme::Controller ctrl(sim, "nvme0", fw, nand, ftl);
    ctrl.setTransport([](std::uint32_t, std::uint64_t,
                         const afa::nvme::NvmeCompletion &) {});
    afa::obs::TraceParams trace;
    trace.mask = afa::obs::categoryBit(afa::obs::Category::Nvme);
    trace.capacity = 0; // the attribution is exact without a ring
    afa::obs::SpanLog spans(trace);
    ctrl.setSpanLog(&spans, 0);
    ctrl.start();

    afa::workload::ArrivalParams ap;
    ap.ratePerSec = rho / afa::sim::toSec(kPipeline);
    afa::workload::ArrivalProcess arrivals(ap);
    afa::sim::Rng rng = sim.rng().fork("arrivals");
    std::uint64_t sent = 0;
    auto arrive = [&](auto &self) -> void {
        ctrl.submit(afa::nvme::NvmeCommand{
            afa::nvme::Op::Read, sent % ftl.logicalBlocks,
            afa::nvme::kLogicalBlockBytes, 0, sent, sent + 1});
        if (++sent < kArrivals)
            sim.scheduleAfter(arrivals.nextGap(rng),
                              [&self] { self(self); });
    };
    sim.scheduleAfter(arrivals.nextGap(rng), [&] { arrive(arrive); });
    sim.run();

    EXPECT_EQ(sent, kArrivals);
    EXPECT_EQ(ctrl.stats().readsCompleted, kArrivals);
    EXPECT_EQ(ctrl.ftl().stats().hostReadsMapped, 0u);
    const afa::obs::Log2Histogram &wait =
        spans.attribution().stage(afa::obs::Stage::ControllerQueue);
    const double n = static_cast<double>(kArrivals);
    return {static_cast<double>(wait.totalTicks) / n,
            static_cast<double>(wait.count) / n};
}

/** M/D/1 mean wait in ns at load @p rho on kPipeline. */
double
md1MeanWaitNs(double rho)
{
    return rho * static_cast<double>(kPipeline) / (2.0 * (1.0 - rho));
}

/** True when @p w's mean wait is within @p load's bound of M/D/1. */
bool
meanWaitWithinBound(const PipelineWait &w, const Load &load)
{
    return std::abs(w.meanWaitNs / md1MeanWaitNs(load.rho) - 1.0) <=
        load.meanWaitTolerance;
}

class Md1PipelineTest : public ::testing::TestWithParam<Load>
{
};

TEST_P(Md1PipelineTest, MeanWaitAndWaitedShareMatchTheory)
{
    const Load load = GetParam();
    const double expected = md1MeanWaitNs(load.rho);
    for (std::uint64_t seed : kSeeds) {
        const PipelineWait w = measure(seed, load.rho, kPipeline);
        EXPECT_TRUE(meanWaitWithinBound(w, load))
            << "mean wait W = rho D / (2 (1 - rho)) = " << expected
            << " ns within " << load.meanWaitTolerance * 100.0
            << "%; seed " << seed << " measured " << w.meanWaitNs
            << " ns";
        EXPECT_NEAR(w.waitedShare, load.rho, kWaitedShareTolerance)
            << "P(wait > 0) = rho within " << kWaitedShareTolerance
            << "; seed " << seed;
    }
}

TEST_P(Md1PipelineTest, BoundsRejectASlowerPipeline)
{
    // A seeded model error: the pipeline serves in 6.5 us while the
    // arrival rate, and so the theory, stays at 6.25 us.
    const Load load = GetParam();
    for (std::uint64_t seed : kSeeds) {
        const PipelineWait w =
            measure(seed, load.rho, afa::sim::nsec(6500));
        EXPECT_FALSE(meanWaitWithinBound(w, load))
            << "mean wait " << w.meanWaitNs << " ns on seed " << seed
            << " is within " << load.meanWaitTolerance * 100.0
            << "% of W = " << md1MeanWaitNs(load.rho) << " ns";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Loads, Md1PipelineTest,
    ::testing::Values(Load{0.3, 0.04}, Load{0.6, 0.06},
                      Load{0.9, 0.15}),
    [](const ::testing::TestParamInfo<Load> &info) {
        return "rho" +
            std::to_string(std::lround(info.param.rho * 100.0));
    });

} // namespace
