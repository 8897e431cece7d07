/**
 * @file
 * Quickstart: build a small all-flash array, run the paper's 4 KiB
 * random-read QD1 workload under two tuning profiles, and print the
 * latency ladders side by side.
 *
 * Usage: quickstart [--ssds N] [--runtime-ms M] [--seed S]
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/report.hh"
#include "pcie/afa_topology.hh"
#include "sim/config.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);

    ExperimentParams params;
    params.ssds = static_cast<unsigned>(
        cfg.getCount("ssds", 8, 1, afa::pcie::kMaxAfaSsds));
    params.runtime = cfg.getMsec("runtime_ms", 1000);
    params.seed = cfg.getUint("seed", 42);
    cfg.rejectUnread("quickstart");
    params.job = afa::workload::FioJob::parse(
        "rw=randread bs=4k iodepth=1");

    std::printf("AFASim quickstart: %u NVMe SSDs, 4k randread QD1\n\n",
                params.ssds);

    for (TuningProfile profile :
         {TuningProfile::Default, TuningProfile::IrqAffinity}) {
        params.profile = profile;
        auto result = ExperimentRunner::run(params);
        std::printf("=== %s ===\n", tuningProfileName(profile));
        std::printf("%s\n", describeExperiment(result).c_str());
        envelopeTable(result).print();
        std::printf("\n");
    }
    std::printf(
        "The tuned profile (chrt + isolcpus + pinned IRQs) shows the\n"
        "converged, low-tail distribution of the paper's Fig. 9;\n"
        "the default profile shows the Fig. 6 pathology.\n");
    return 0;
}
