/**
 * @file
 * Ablation A2 (the paper's stated future work): latency in non-FOB
 * (aged) SSD states. The paper keeps every drive fresh-out-of-box so
 * reads never touch NAND; here we precondition the drives so reads
 * pay NAND tR, and add write pressure so reads share dies with page
 * programs.
 *
 * Three states on the fully tuned (exp-firmware) stack:
 *   FOB            - the paper's methodology (zero-fill fast path)
 *   aged, reads    - 100% preconditioned, pure random reads (NAND tR)
 *   aged, mixed    - preconditioned + 30% random writes: reads queue
 *                    behind page programs (tProg) on their die
 *
 * The sim-scaled drive has four physical slots per logical block, so
 * no drive garbage-collects within the default 4 s (ftl.gc_runs and
 * nand.erases stay 0). Each state sets its own FIO job, so --job is
 * refused. NAND-path runs are event-heavy: --ssds defaults to 16 and
 * refuses more.
 */

#include "common.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"job"});
    opts.params.profile = TuningProfile::ExpFirmware;
    opts.params.ssds =
        static_cast<unsigned>(opts.cfg.getCount("ssds", 16, 1, 16));

    afa::core::RunPlan plan;
    auto add_case = [&](const char *name, double precondition,
                        const char *jobspec) {
        auto params = opts.params;
        params.preconditionFraction = precondition;
        params.job = afa::workload::FioJob::parse(jobspec);
        plan.add(name, params);
    };

    add_case("FOB (paper)", 0.0, "rw=randread bs=4k iodepth=1");
    add_case("aged, read-only", 1.0, "rw=randread bs=4k iodepth=1");
    add_case("aged, 30% writes", 1.0,
             "rw=randrw rwmixread=70 bs=4k iodepth=1");

    auto run = afa::bench::executePlan(plan, opts);

    const char *names[] = {"FOB (paper)", "aged, read-only",
                           "aged, 30% writes"};
    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const auto &result = run.results[i];
        std::printf("--- %s: avg %.1f us, p99.99 %.1f us, max(mean) "
                    "%.1f us, ios %llu ---\n",
                    names[i], result.aggregate.meanUs[0],
                    result.aggregate.meanUs[3],
                    result.aggregate.meanUs[6],
                    (unsigned long long)result.totalIos);
        rows.emplace_back(names[i], result.aggregate);
    }

    std::printf("\n=== A2: FOB vs aged drive states (usec) ===\n");
    afa::bench::printTable(comparisonTable(rows), opts.csv);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    std::printf("\nExpected shape: aged reads sit on NAND tR (~50 us "
                "higher avg);\nwith writes, reads queue behind 1.3 ms "
                "page programs (tProg)\non their die in the tail -- "
                "the effect the paper deferred to\nfuture work.\n");
    return 0;
}
