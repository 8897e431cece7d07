/**
 * @file
 * Fig. 8: latency distributions after the Section IV-C boot options
 * (isolcpus, nohz_full, rcu_nocbs, processor.max_cstate=1,
 * idle=poll) on top of chrt. Expected: tighter distributions than
 * Fig. 7; per-SSD divergence from IRQ misplacement remains.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::Isolcpus});
    auto run = afa::bench::executePlan(plan, opts);
    afa::bench::reportFigure("Fig. 8", "after setting CPU isolation",
                             run.results[0], opts);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
