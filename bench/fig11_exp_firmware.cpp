/**
 * @file
 * Fig. 11: latency distributions with the experimental SSD firmware
 * (SMART data update/save disabled) on top of the fully tuned host.
 * Expected: worst case drops from the SMART-stall scale (~600 us) to
 * tens of microseconds (paper: ~90 us), while the *range* of max
 * latency across SSDs stays wide (per-device firmware hiccups).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::ExpFirmware});
    auto run = afa::bench::executePlan(plan, opts);
    afa::bench::reportFigure("Fig. 11",
                             "experimental firmware (SMART disabled)",
                             run.results[0], opts);
    const auto &aggregate = run.results[0].aggregate;
    std::printf("max-latency range across SSDs: %.1f .. %.1f us\n",
                aggregate.minUs[6], aggregate.maxUs[6]);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
