/**
 * @file
 * Ablation A5 (stated future work): NUMA placement of FIO threads.
 * The AFA uplink hangs off socket 1 (the paper's CPU2); threads on
 * socket 0 pay a QPI crossing on every interrupt and IPI. Runs the
 * same 16-SSD workload pinned to uplink-local vs remote cores, as an
 * explicit-placement run plan on the parallel experiment engine. The
 * placements fix the SSD count and the firmware and daemon cadences,
 * and open-loop traffic would ignore them, so --ssds,
 * --smart-period-ms, --irqbalance-ms and --rate are refused.
 */

#include "common.hh"

using namespace afa::core;

namespace {

ExperimentParams
pinnedParams(const afa::bench::BenchOptions &opts,
             const std::vector<unsigned> &cpus)
{
    ExperimentParams params = opts.params;
    params.ssds = static_cast<unsigned>(cpus.size());
    params.backgroundLoad = false;
    // Keep the firmware/kernel cadence defaults of the original
    // hand-rolled harness rather than the figure-bench scaling.
    params.smartPeriod = 0;
    params.irqBalanceInterval = 0;

    Geometry geometry(afa::host::CpuTopology{}, params.ssds);
    params.profile = TuningProfile::ExpFirmware;
    params.tuningOverride =
        TuningConfig::forProfile(TuningProfile::ExpFirmware, geometry);

    Run placements;
    for (unsigned i = 0; i < cpus.size(); ++i)
        placements.push_back(Placement{i, cpus[i]});
    params.placementOverride = placements;
    return params;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(
        argc, argv, {"ssds", "smart_period_ms", "irqbalance_ms", "rate"});

    // 16 threads on uplink-local physical cores vs remote ones.
    std::vector<unsigned> local, remote;
    for (unsigned cpu = 10; cpu < 20; ++cpu)
        local.push_back(cpu); // socket 1, thread 0
    for (unsigned cpu = 30; cpu < 36; ++cpu)
        local.push_back(cpu); // socket 1, thread 1
    for (unsigned cpu = 0; cpu < 10; ++cpu)
        remote.push_back(cpu); // socket 0
    for (unsigned cpu = 20; cpu < 26; ++cpu)
        remote.push_back(cpu);

    RunPlan plan;
    plan.add("uplink-local (socket 1)", pinnedParams(opts, local));
    plan.add("uplink-remote (socket 0)", pinnedParams(opts, remote));
    auto run = afa::bench::executePlan(plan, opts);

    const auto &local_agg = run.results[0].aggregate;
    const auto &remote_agg = run.results[1].aggregate;

    std::vector<std::pair<std::string, afa::stats::LadderAggregate>>
        rows{{"uplink-local (socket 1)", local_agg},
             {"uplink-remote (socket 0)", remote_agg}};
    std::printf("=== A5: NUMA placement of FIO threads (usec) ===\n");
    afa::bench::printTable(comparisonTable(rows), opts.csv);
    std::printf("\navg penalty for remote-socket threads: %.2f us "
                "per IO\n",
                remote_agg.meanUs[0] - local_agg.meanUs[0]);
    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
