/**
 * @file
 * Fig. 14: mean and standard deviation of the latency-ladder points
 * across devices for each Fig. 13 geometry. Expected: all four
 * geometries agree closely, confirming that profiling many SSDs in
 * parallel is valid while CPU utilisation stays low -- the basis of
 * the paper's "x10-x100 faster SSD profiling" claim.
 *
 * The four geometries execute as a plan on the parallel experiment
 * engine (--jobs / --seeds, see common.hh). Open-loop traffic has no
 * geometry variants, so --rate is refused.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"rate"});
    opts.params.profile = afa::core::TuningProfile::IrqAffinity;
    using afa::core::GeometryVariant;

    const std::vector<GeometryVariant> variants{
        GeometryVariant::FourPerCore, GeometryVariant::TwoPerCore,
        GeometryVariant::OnePerCore, GeometryVariant::SingleThread};

    afa::core::RunPlan plan(opts.params);
    plan.variants(variants);
    auto run = afa::bench::executePlan(plan, opts);

    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto &result = run.results[i];
        std::printf("--- %s: runs=%u ios=%llu ---\n",
                    afa::core::geometryVariantName(variants[i]),
                    result.runs,
                    (unsigned long long)result.totalIos);
        rows.emplace_back(
            afa::core::geometryVariantName(variants[i]),
            result.aggregate);
    }
    std::printf("\n=== Fig. 14: comparison of SSDs per physical core "
                "(usec) ===\n");
    afa::bench::printTable(afa::core::comparisonTable(rows), opts.csv);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
