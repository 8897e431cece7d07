/**
 * @file
 * Ablation A3: sensitivity to the irqbalance rescan interval. The
 * paper stops irqbalance entirely (Section IV-D); this sweep shows
 * how the per-SSD divergence scales with how often the daemon
 * shuffles busy vectors, from an aggressive 250 ms to fully off.
 * Each case sets its own interval, so --irqbalance-ms is refused.
 */

#include "common.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"irqbalance_ms"});
    opts.params.profile = TuningProfile::Isolcpus;

    Geometry geometry(afa::host::CpuTopology(opts.params.topology),
                      opts.params.ssds);
    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;

    struct Case
    {
        const char *name;
        afa::sim::Tick interval; // 0 = disabled
    };
    // The default IRQ spread already maps queue q to CPU q, so
    // turning the daemon off is the paper's pinning.
    const Case cases[] = {
        {"rescan 250ms", afa::sim::msec(250)},
        {"rescan 1s", afa::sim::sec(1)},
        {"rescan 4s", afa::sim::sec(4)},
        {"irqbalance off (paper)", 0},
    };

    afa::core::RunPlan plan;
    for (const Case &c : cases) {
        TuningConfig cfg =
            TuningConfig::forProfile(TuningProfile::Isolcpus, geometry);
        cfg.kernel.irq.irqBalanceEnabled = c.interval > 0;
        auto params = opts.params;
        params.tuningOverride = cfg;
        params.irqBalanceInterval =
            c.interval > 0 ? c.interval : afa::sim::sec(1);
        plan.add(c.name, params);
    }
    auto run = afa::bench::executePlan(plan, opts);

    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const auto &result = run.results[i];
        std::printf("--- %s: stddev(avg) %.2f us, stddev(p99.99) "
                    "%.1f us ---\n",
                    cases[i].name, result.aggregate.stddevUs[0],
                    result.aggregate.stddevUs[3]);
        rows.emplace_back(cases[i].name, result.aggregate);
    }
    std::printf("\n=== A3: irqbalance interval sweep (usec) ===\n");
    afa::bench::printTable(comparisonTable(rows), opts.csv);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    std::printf("\nNote: the default IRQ spread already maps queue q "
                "to CPU q,\nso 'irqbalance off' is the paper's pinning; "
                "the daemon is what\nbreaks the affinity.\n");
    return 0;
}
