/**
 * @file
 * Tests for the run-plan expansion and the parallel experiment
 * runner, including the determinism regression: a run's per-SSD
 * latency summaries must be bit-identical whether the plan executes
 * serially, on one worker, or on eight, regardless of completion
 * order.
 */

#include <gtest/gtest.h>

#include "core/run_plan.hh"

using namespace afa::core;

namespace {

ExperimentParams
smallParams()
{
    ExperimentParams params;
    params.ssds = 8;
    params.runtime = afa::sim::msec(40);
    params.smartPeriod = afa::sim::msec(20);
    params.irqBalanceInterval = afa::sim::msec(20);
    params.job =
        afa::workload::FioJob::parse("rw=randread bs=4k iodepth=1");
    return params;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    ASSERT_EQ(a.perDevice.size(), b.perDevice.size());
    for (std::size_t d = 0; d < a.perDevice.size(); ++d) {
        const auto &lhs = a.perDevice[d];
        const auto &rhs = b.perDevice[d];
        EXPECT_EQ(lhs.device, rhs.device);
        EXPECT_EQ(lhs.samples, rhs.samples);
        // Bit-identical, not approximately equal: the simulations
        // must not interact across worker threads.
        EXPECT_EQ(lhs.meanUs, rhs.meanUs);
        EXPECT_EQ(lhs.stddevUs, rhs.stddevUs);
        EXPECT_EQ(lhs.minUs, rhs.minUs);
        EXPECT_EQ(lhs.maxUs, rhs.maxUs);
        for (std::size_t p = 0; p < lhs.ladderUs.size(); ++p)
            EXPECT_EQ(lhs.ladderUs[p], rhs.ladderUs[p]);
    }
    EXPECT_EQ(a.totalIos, b.totalIos);
    EXPECT_EQ(a.simulatedEvents, b.simulatedEvents);
}

TEST(RunPlanTest, ExpandsProfileAxis)
{
    RunPlan plan(smallParams());
    plan.profiles({TuningProfile::Default, TuningProfile::Chrt});
    auto runs = plan.expand();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "default");
    EXPECT_EQ(runs[1].label, "chrt");
    EXPECT_EQ(runs[0].index, 0u);
    EXPECT_EQ(runs[1].index, 1u);
    EXPECT_EQ(runs[0].params.profile, TuningProfile::Default);
    EXPECT_EQ(runs[1].params.profile, TuningProfile::Chrt);
}

TEST(RunPlanTest, ExpandsCrossProductWithSeeds)
{
    RunPlan plan(smallParams());
    plan.base().seed = 10;
    plan.profiles({TuningProfile::Default, TuningProfile::Isolcpus})
        .variants({GeometryVariant::FourPerCore,
                   GeometryVariant::OnePerCore})
        .seeds(3);
    auto runs = plan.expand();
    ASSERT_EQ(runs.size(), 2u * 2u * 3u);
    // Seed is the innermost axis.
    EXPECT_EQ(runs[0].params.seed, 10u);
    EXPECT_EQ(runs[1].params.seed, 11u);
    EXPECT_EQ(runs[2].params.seed, 12u);
    EXPECT_EQ(runs[0].label, "default/4-ssds-per-core/seed10");
    EXPECT_EQ(runs[11].label, "isolcpus/1-ssd-per-core/seed12");
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].index, i);
}

TEST(RunPlanTest, ExplicitRunsOnlyNoImplicitBase)
{
    RunPlan plan;
    plan.add("a", smallParams()).add("b", smallParams());
    auto runs = plan.expand();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "a");
    EXPECT_EQ(runs[1].label, "b");
}

TEST(RunPlanTest, ExplicitRunsReplicateAcrossSeeds)
{
    auto params = smallParams();
    params.seed = 5;
    RunPlan plan;
    plan.add("case", params).seeds(2);
    auto runs = plan.expand();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "case/seed5");
    EXPECT_EQ(runs[1].label, "case/seed6");
    EXPECT_EQ(runs[0].params.seed, 5u);
    EXPECT_EQ(runs[1].params.seed, 6u);
}

TEST(RunPlanTest, EmptyPlanRunsNothing)
{
    ParallelExperimentRunner runner(4);
    auto results = runner.run({});
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(runner.metrics().finished(), 0u);
}

TEST(ParallelRunnerTest, DeterministicAcrossWorkerCounts)
{
    RunPlan plan(smallParams());
    plan.profiles({TuningProfile::Default, TuningProfile::Chrt,
                   TuningProfile::IrqAffinity});
    auto descriptors = plan.expand();

    // Reference: the serial ExperimentRunner, no pool at all.
    std::vector<ExperimentResult> serial;
    for (const auto &desc : descriptors)
        serial.push_back(ExperimentRunner::run(desc.params));

    ParallelExperimentRunner one(1);
    auto one_worker = one.run(descriptors);

    ParallelExperimentRunner eight(8);
    auto eight_workers = eight.run(descriptors);

    ASSERT_EQ(one_worker.size(), serial.size());
    ASSERT_EQ(eight_workers.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], one_worker[i]);
        expectIdentical(serial[i], eight_workers[i]);
    }
}

TEST(ParallelRunnerTest, CollectsMetricsForEveryRun)
{
    RunPlan plan(smallParams());
    plan.profiles({TuningProfile::Default, TuningProfile::Chrt});
    auto descriptors = plan.expand();

    ParallelExperimentRunner runner(2);
    auto results = runner.run(descriptors);
    ASSERT_EQ(results.size(), 2u);

    EXPECT_EQ(runner.metrics().finished(), 2u);
    auto metrics = runner.metrics().snapshot();
    ASSERT_EQ(metrics.size(), 2u);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        EXPECT_EQ(metrics[i].index, i);
        EXPECT_EQ(metrics[i].label, descriptors[i].label);
        EXPECT_EQ(metrics[i].events, results[i].simulatedEvents);
        EXPECT_GT(metrics[i].events, 0u);
        EXPECT_GE(metrics[i].wallSeconds, 0.0);
    }
    EXPECT_GT(runner.suiteWallSeconds(), 0.0);

    auto table = runner.metricsTable();
    EXPECT_EQ(table.rows(), 3u); // two runs + totals
    auto json = runner.metricsJson();
    EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"per_run\""), std::string::npos);
    EXPECT_NE(json.find(descriptors[0].label), std::string::npos);
}

TEST(ParallelRunnerTest, MergeReplicasConcatenatesDevices)
{
    auto params = smallParams();
    params.ssds = 4;
    RunPlan plan(params);
    plan.seeds(2);
    auto descriptors = plan.expand();
    ASSERT_EQ(descriptors.size(), 2u);

    ParallelExperimentRunner runner(2);
    auto results = runner.run(descriptors);

    auto merged = ParallelExperimentRunner::mergeReplicas(
        {&results[0], &results[1]});
    EXPECT_EQ(merged.perDevice.size(), 8u);
    EXPECT_EQ(merged.totalIos,
              results[0].totalIos + results[1].totalIos);
    EXPECT_EQ(merged.aggregate.devices, 8u);
    // Different seeds must actually produce different runs.
    EXPECT_NE(results[0].perDevice[0].meanUs,
              results[1].perDevice[0].meanUs);
}

TEST(ParallelRunnerTest, PlacementOverrideRunsExplicitPins)
{
    auto params = smallParams();
    params.ssds = 4;
    afa::core::Run placements{{0, 10}, {1, 11}, {2, 30}, {3, 31}};
    params.placementOverride = placements;

    auto result = ExperimentRunner::run(params);
    EXPECT_EQ(result.runs, 1u);
    EXPECT_EQ(result.perDevice.size(), 4u);
    for (const auto &summary : result.perDevice)
        EXPECT_GT(summary.samples, 0u);
}

} // namespace
