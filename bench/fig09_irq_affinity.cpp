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
    auto opts = afa::bench::parseOptions(argc, argv,
                                           /*replicates=*/false);
    opts.params.profile = afa::core::TuningProfile::IrqAffinity;
    auto result = afa::core::ExperimentRunner::run(opts.params);
    afa::bench::reportFigure("Fig. 9", "after setting CPU affinity",
                             result, opts);
    return 0;
}
