/**
 * @file
 * Tuning advisor: walks the paper's tuning ladder step by step on
 * your (simulated) array, quantifies what each step buys, and prints
 * the exact knobs to apply on a real host -- the chrt command, the
 * Section IV-C boot line, and the IRQ pinning recipe.
 *
 * Usage: tuning_advisor [--ssds N] [--runtime-ms M] [--seed S]
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
        cfg.getCount("ssds", 32, 1, afa::pcie::kMaxAfaSsds));
    params.runtime = cfg.getMsec("runtime_ms", 2000);
    params.seed = cfg.getUint("seed", 11);
    cfg.rejectUnread("tuning_advisor");

    const std::size_t kMax = afa::stats::NinesLadder::kPoints - 1;

    struct Step
    {
        TuningProfile profile;
        const char *recipe;
    };
    const Step steps[] = {
        {TuningProfile::Default, "(baseline, no changes)"},
        {TuningProfile::Chrt,
         "chrt -f -p 99 $(pidof fio)   # per FIO process"},
        {TuningProfile::Isolcpus,
         "add to the kernel boot line (then reboot):\n"
         "    isolcpus=<fio-cpus> nohz_full=<fio-cpus> "
         "rcu_nocbs=<fio-cpus>\n"
         "    processor.max_cstate=1 idle=poll"},
        {TuningProfile::IrqAffinity,
         "systemctl stop irqbalance; for each nvme queue vector:\n"
         "    echo <queue-cpu-mask> > "
         "/proc/irq/<vector>/smp_affinity  # or use tuna"},
        {TuningProfile::ExpFirmware,
         "vendor firmware with SMART data update/save disabled\n"
         "    (engineering builds only -- do not ship; see paper "
         "Sec. V)"},
    };

    std::printf("AFA tuning advisor: %u SSDs, 4k randread QD1, "
                "%.1fs per step\n\n",
                params.ssds, afa::sim::toSec(params.runtime));

    double prev_max = 0.0, prev_std = 0.0;
    for (const Step &step : steps) {
        params.profile = step.profile;
        auto result = ExperimentRunner::run(params);
        double max_us = result.aggregate.meanUs[kMax];
        double std_us = result.aggregate.stddevUs[kMax];
        std::printf("== step: %s ==\n",
                    tuningProfileName(step.profile));
        std::printf("   mean(max latency) %8.1f us   "
                    "stddev(max) %8.1f us",
                    max_us, std_us);
        if (prev_max > 0.0)
            std::printf("   [max x%.1f, stddev x%.1f vs previous]",
                        prev_max / max_us,
                        std_us > 0 ? prev_std / std_us : 0.0);
        std::printf("\n   apply: %s\n", step.recipe);
        if (!result.bootCmdline.empty())
            std::printf("   (this host's boot line: %s)\n",
                        result.bootCmdline.c_str());
        std::printf("\n");
        prev_max = max_us;
        prev_std = std_us;
    }
    std::printf("Notes: steps are cumulative, as in the paper "
                "(ISPASS'18, Sec. IV).\n");
    return 0;
}
