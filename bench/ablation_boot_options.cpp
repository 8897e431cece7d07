/**
 * @file
 * Ablation A1: the Section IV-C boot line bundles five options --
 * which one does what? Starting from the chrt profile, each option is
 * enabled alone, then all together (= the isolcpus profile), and the
 * envelope compared.
 */

#include "common.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    opts.params.profile = TuningProfile::Chrt; // recorded label

    Geometry geometry(afa::host::CpuTopology(opts.params.topology),
                      opts.params.ssds);
    TuningConfig base =
        TuningConfig::forProfile(TuningProfile::Chrt, geometry);
    auto iso = geometry.isolationSet();

    struct Variant
    {
        const char *name;
        TuningConfig cfg;
    };
    std::vector<Variant> variants;
    variants.push_back({"chrt-only", base});
    {
        TuningConfig c = base;
        c.kernel.isolcpus = iso;
        variants.push_back({"+isolcpus", c});
    }
    {
        TuningConfig c = base;
        c.kernel.nohzFull = iso;
        variants.push_back({"+nohz_full", c});
    }
    {
        TuningConfig c = base;
        c.kernel.rcuNocbs = iso;
        variants.push_back({"+rcu_nocbs", c});
    }
    {
        TuningConfig c = base;
        c.kernel.cstate.maxCstate = 1;
        variants.push_back({"+max_cstate=1", c});
    }
    {
        TuningConfig c = base;
        c.kernel.cstate.idlePoll = true;
        variants.push_back({"+idle=poll", c});
    }
    variants.push_back(
        {"all (isolcpus profile)",
         TuningConfig::forProfile(TuningProfile::Isolcpus, geometry)});

    afa::core::RunPlan plan;
    for (const auto &variant : variants) {
        auto params = opts.params;
        params.tuningOverride = variant.cfg;
        plan.add(variant.name, params);
    }
    auto run = afa::bench::executePlan(plan, opts);

    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto &result = run.results[i];
        std::printf("--- %s: avg %.1f us, p99.99 %.1f us, max(mean) "
                    "%.1f us ---\n",
                    variants[i].name, result.aggregate.meanUs[0],
                    result.aggregate.meanUs[3],
                    result.aggregate.meanUs[6]);
        rows.emplace_back(variants[i].name, result.aggregate);
    }
    std::printf("\n=== A1: boot-option ablation on top of chrt "
                "(usec) ===\n");
    afa::bench::printTable(afa::core::comparisonTable(rows), opts.csv);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
