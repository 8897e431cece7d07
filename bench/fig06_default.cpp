/**
 * @file
 * Fig. 6: latency distributions of 64 SSDs under the default Linux
 * configuration. Expected shape: tight up to 4-nines, wide spread
 * from 5-nines, worst case in the milliseconds (paper: ~5 ms).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::Default});
    auto run = afa::bench::executePlan(plan, opts);
    afa::bench::reportFigure(
        "Fig. 6", "64-SSD latency distributions, default kernel",
        run.results[0], opts);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
