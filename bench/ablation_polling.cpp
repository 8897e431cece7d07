/**
 * @file
 * Ablation A4: polling vs interrupt completion (the Section V
 * discussion of Yang et al.'s "When poll is better than interrupt").
 * Polling removes the hardirq/softirq/context-switch path from the
 * latency but burns the submitting CPU, so the dense 4-SSDs-per-core
 * geometry loses throughput -- the trade-off the paper describes.
 * Open-loop traffic cannot poll, so --rate is refused. Polling
 * simulates every poll quantum as a scheduler segment (~10x the
 * events of interrupt mode), so --runtime-ms defaults to 1200 and
 * refuses more: the sweep cost stays bounded while the comparison
 * stays statistically meaningful. It refuses 0 too, which leaves no
 * time to divide the kIOPS by.
 */

#include "common.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"rate"});
    opts.params.profile = TuningProfile::ExpFirmware;
    opts.params.runtime =
        opts.cfg.getCount("runtime_ms", 1200, 1, 1200) * afa::sim::kMsec;

    struct Case
    {
        const char *name;
        bool polled;
        GeometryVariant variant;
    };
    const Case cases[] = {
        {"interrupt, 1 SSD/core", false, GeometryVariant::OnePerCore},
        {"polling, 1 SSD/core", true, GeometryVariant::OnePerCore},
        {"interrupt, 4 SSD/core", false,
         GeometryVariant::FourPerCore},
        {"polling, 4 SSD/core", true, GeometryVariant::FourPerCore},
    };

    afa::core::RunPlan plan;
    for (const Case &c : cases) {
        auto params = opts.params;
        params.polledCompletions = c.polled;
        params.variant = c.variant;
        plan.add(c.name, params);
    }
    auto run = afa::bench::executePlan(plan, opts);

    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const auto &result = run.results[i];
        double kiops = result.totalIos /
            afa::sim::toSec(opts.params.runtime) / 1000.0 /
            result.runs;
        std::printf("--- %s: avg %.1f us, p99.99 %.1f us, %.0f kIOPS "
                    "aggregate ---\n",
                    cases[i].name, result.aggregate.meanUs[0],
                    result.aggregate.meanUs[3], kiops);
        rows.emplace_back(cases[i].name, result.aggregate);
    }
    std::printf("\n=== A4: polling vs interrupt (usec) ===\n");
    afa::bench::printTable(comparisonTable(rows), opts.csv);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    std::printf("\nExpected: polling trims several microseconds of "
                "IRQ/wakeup path\nat 1 SSD/core, but at 4 SSDs/core "
                "two polling threads contend for\neach logical CPU "
                "and throughput/latency degrade -- poll is only\n"
                "better when CPUs are plentiful (the paper's open "
                "question).\n");
    return 0;
}
