/**
 * @file
 * Fig. 9: latency distributions after pinning all 2,560 NVMe MSI-X
 * vectors to their queue CPUs (procfs/tuna) on top of Fig. 8's
 * configuration. Expected: the 64 curves converge; the residual
 * 6-nines/max tail is the SMART housekeeping stall.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::IrqAffinity});
    auto run = afa::bench::executePlan(plan, opts);
    afa::bench::reportFigure("Fig. 9", "after setting CPU affinity",
                             run.results[0], opts);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
