/**
 * @file
 * Ablation A2 (the paper's stated future work): latency in non-FOB
 * (aged) SSD states. The paper keeps every drive fresh-out-of-box so
 * reads never touch NAND and garbage collection never runs; here we
 * precondition the drives and add write pressure so mapped reads and
 * GC interleave with the measured reads.
 *
 * Three states on the fully tuned (exp-firmware) stack:
 *   FOB            - the paper's methodology (zero-fill fast path)
 *   aged, reads    - 100% preconditioned, pure random reads (NAND tR)
 *   aged, mixed    - preconditioned + 30% random writes on a low-OP
 *                    FTL: GC relocations collide with reads
 *
 * Each state sets its own FIO job, so --job is refused.
 */

#include "common.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"job"});
    opts.params.profile = TuningProfile::ExpFirmware;
    if (!opts.params.ssds || opts.params.ssds > 16)
        opts.params.ssds = 16; // NAND-path runs are event-heavy

    afa::core::RunPlan plan;
    auto add_case = [&](const char *name, double precondition,
                        const char *jobspec, double over_provision) {
        auto params = opts.params;
        params.preconditionFraction = precondition;
        params.job = afa::workload::FioJob::parse(jobspec);
        params.ftl.overProvision = over_provision;
        plan.add(name, params);
    };

    add_case("FOB (paper)", 0.0, "rw=randread bs=4k iodepth=1", 1.25);
    add_case("aged, read-only", 1.0, "rw=randread bs=4k iodepth=1",
             1.25);
    add_case("aged, 30% writes", 1.0,
             "rw=randrw rwmixread=70 bs=4k iodepth=1", 1.09);

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
                "higher avg);\nwrite pressure adds GC die/channel "
                "contention in the tail --\nthe effect the paper "
                "deferred to future work.\n");
    return 0;
}
