/**
 * @file
 * SNIA PTS-E style steady-state check (the methodology the paper
 * follows, Section III-B): rounds of 4 KiB random reads on one SSD
 * with the PTS window/excursion arithmetic. FOB random reads settle
 * immediately -- which is precisely why the paper measures in the FOB
 * state -- and the rounds report shows it.
 *
 * Flags: --rounds N in [1, 1000] (default 8), --round-ms M in
 * [1, 3600000] (default 250), --seed S, --csv; any other flag fails.
 * The ceilings keep the run's horizon, (M + 50) x (N + 1) ms, inside
 * the Tick range.
 */

#include "common.hh"

#include <memory>

#include "sim/logging.hh"
#include "workload/pts.hh"

using namespace afa::core;

int
main(int argc, char **argv)
{
    const auto opts = afa::bench::parseArgs(argc, argv);
    const auto rounds = opts.cfg.getCount("rounds", 8, 1, 1000);
    const auto round_ms = opts.cfg.getCount("round_ms", 250, 1, 3600000);
    bool csv = opts.cfg.getBool("csv", false);
    const std::uint64_t seed = opts.cfg.getUint("seed", 1);
    afa::bench::rejectUnusedFlags(opts);

    // Tuned host, quiet background; zero periods keep the firmware
    // and irqbalance defaults.
    ExperimentParams params;
    params.ssds = 1;
    params.profile = TuningProfile::IrqAffinity;
    params.smartPeriod = 0;
    params.irqBalanceInterval = 0;
    params.backgroundLoad = false;
    Geometry geometry(afa::host::CpuTopology(params.topology), 1);
    TuningConfig tuning =
        TuningConfig::forProfile(params.profile, geometry);
    Testbed tb(params, tuning, seed);

    afa::workload::FioJob job =
        afa::workload::FioJob::parse("rw=randread bs=4k iodepth=1");
    job.runtime = afa::sim::msec(static_cast<double>(round_ms));
    job.cpusAllowed = afa::host::CpuMask(1)
        << geometry.cpuForDevice(0);
    job.rtPriority = tuning.fioRtPriority;

    afa::workload::PtsRunner runner(tb.sim(), "pts",
                                    tb.system().scheduler(),
                                    tb.system().ioEngine(), 0, job,
                                    rounds);
    tb.start();
    runner.start();
    tb.sim().run(afa::sim::msec(
        static_cast<double>((round_ms + 50) * (rounds + 1))));
    if (!runner.finished())
        afa::sim::fatal("PTS rounds did not finish; raise the bound");

    std::printf("=== PTS-E steady-state rounds (1 SSD, FOB, 4k "
                "randread QD1) ===\n");
    afa::stats::Table table(
        {"round", "iops", "mean_us", "p99.9_us"});
    for (std::size_t i = 0; i < runner.rounds().size(); ++i) {
        const auto &round = runner.rounds()[i];
        table.addRow({afa::stats::Table::num(std::uint64_t(i)),
                      afa::stats::Table::num(round.iops, 0),
                      afa::stats::Table::num(round.meanLatencyUs, 2),
                      afa::stats::Table::num(round.p999LatencyUs,
                                             2)});
    }
    if (csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        table.print();

    auto iops_ss = runner.iopsSteadyState();
    auto lat_ss = runner.latencySteadyState();
    std::printf("\nsteady state (PTS window=5, excursion 20%%, slope "
                "10%%):\n");
    std::printf("  IOPS   : %s (window avg %.0f, slope %.2f/round)\n",
                iops_ss.steady ? "reached" : "NOT reached",
                iops_ss.windowAverage, iops_ss.windowSlope);
    std::printf("  latency: %s (window avg %.2f us)\n",
                lat_ss.steady ? "reached" : "NOT reached",
                lat_ss.windowAverage);
    return 0;
}
