/**
 * @file
 * Fig. 7: latency distributions after `chrt -f 99` on every FIO
 * process. Expected shape: converged vs Fig. 6, worst case dropping
 * from milliseconds to the SMART-stall scale (paper: ~600 us).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::Chrt});
    auto run = afa::bench::executePlan(plan, opts);
    afa::bench::reportFigure(
        "Fig. 7", "after assigning the highest priority to FIO",
        run.results[0], opts);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
