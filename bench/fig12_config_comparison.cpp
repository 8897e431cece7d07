/**
 * @file
 * Fig. 12: mean and standard deviation of every latency-ladder point
 * across the 64 SSDs, for the four system configurations (default,
 * chrt, isolcpus, irq). The paper's headline: with all host-side
 * optimizations, the mean of the max latency improves ~x8 and its
 * standard deviation ~x400 (1,644 -> 4).
 *
 * The four configurations are independent simulations, so they run
 * as a plan on the parallel experiment engine: --jobs N executes
 * them concurrently with bit-identical results, --seeds N replicates
 * each configuration across seeds.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    using afa::core::TuningProfile;

    const std::vector<TuningProfile> profiles{
        TuningProfile::Default, TuningProfile::Chrt,
        TuningProfile::Isolcpus, TuningProfile::IrqAffinity};

    afa::core::RunPlan plan(opts.params);
    plan.profiles(profiles);
    auto run = afa::bench::executePlan(plan, opts);

    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;
    afa::stats::LadderAggregate def_agg, irq_agg;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        TuningProfile profile = profiles[i];
        const auto &result = run.results[i];
        std::printf("--- %s ---\n%s\n",
                    afa::core::tuningProfileName(profile),
                    afa::core::describeExperiment(result).c_str());
        rows.emplace_back(afa::core::tuningProfileName(profile),
                          result.aggregate);
        if (profile == TuningProfile::Default)
            def_agg = result.aggregate;
        if (profile == TuningProfile::IrqAffinity)
            irq_agg = result.aggregate;
    }

    std::printf("=== Fig. 12: comparison of four system "
                "configurations (usec) ===\n");
    afa::bench::printTable(afa::core::comparisonTable(rows), opts.csv);

    const std::size_t max_idx = afa::stats::NinesLadder::kPoints - 1;
    double mean_ratio = irq_agg.meanUs[max_idx] > 0
        ? def_agg.meanUs[max_idx] / irq_agg.meanUs[max_idx]
        : 0.0;
    double stddev_ratio = irq_agg.stddevUs[max_idx] > 0
        ? def_agg.stddevUs[max_idx] / irq_agg.stddevUs[max_idx]
        : 0.0;
    std::printf("\nmax-latency improvement, default -> irq:\n");
    std::printf("  mean   %.0f -> %.0f us  (x%.1f; paper: ~x8)\n",
                def_agg.meanUs[max_idx], irq_agg.meanUs[max_idx],
                mean_ratio);
    std::printf("  stddev %.0f -> %.0f us  (x%.0f; paper: 1644 -> 4, "
                "~x400)\n",
                def_agg.stddevUs[max_idx], irq_agg.stddevUs[max_idx],
                stddev_ratio);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
