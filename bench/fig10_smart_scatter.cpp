/**
 * @file
 * Fig. 10: scatter plot of raw latency samples from 32 SSDs under the
 * tuned (IRQ-affinity) configuration, exposing the periodic SMART
 * spike clusters. The paper logged 32 of the 64 SSDs because
 * per-sample logging on all 64 perturbed the measurement; we keep the
 * same workflow via --scatter-devices.
 *
 * Prints the spike-cluster analysis (count, period, peak) and a
 * strided sample dump suitable for plotting. With --seeds the
 * analysis covers the first seed's samples. Open-loop traffic logs no
 * samples, so --rate is refused.
 *
 * Extra flags over the common set:
 *   --scatter-devices N     devices whose samples are logged, in
 *                           [1, --ssds] (min(32, --ssds))
 *   --spike-threshold-us T  spike cluster threshold (150)
 *   --dump-samples          print every 100th logged sample
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"rate"});
    const unsigned ssds = opts.params.ssds;
    opts.params.scatterDevices = static_cast<unsigned>(opts.cfg.getCount(
        "scatter_devices", std::min(32u, ssds), 1, ssds));
    const auto threshold = afa::sim::usec(static_cast<double>(
        opts.cfg.getUint("spike_threshold_us", 150)));
    const bool dump_samples = opts.cfg.getBool("dump_samples", false);
    afa::core::RunPlan plan(opts.params);
    plan.profiles({afa::core::TuningProfile::IrqAffinity});
    auto run = afa::bench::executePlan(plan, opts);
    const auto &result = run.results[0];

    const std::string caption = afa::sim::strfmt(
        "latency samples from %u SSDs (SMART spikes)",
        opts.params.scatterDevices);
    afa::bench::reportFigure("Fig. 10", caption.c_str(), result, opts);

    const auto &scatter = result.scatter;
    auto clusters = scatter.clusters(threshold, afa::sim::msec(50));
    std::printf("raw samples logged: %zu (devices 0-%u)\n",
                scatter.size(), opts.params.scatterDevices - 1);
    std::printf("spike clusters above %.0f us: %zu\n",
                afa::sim::toUsec(threshold), clusters.size());
    afa::stats::Table table({"cluster", "start_ms", "samples",
                             "peak_us", "first_sample_index"});
    for (std::size_t i = 0; i < clusters.size() && i < 20; ++i) {
        const auto &c = clusters[i];
        table.addRow({afa::stats::Table::num(std::uint64_t(i)),
                      afa::stats::Table::num(afa::sim::toMsec(c.start),
                                             1),
                      afa::stats::Table::num(c.samples),
                      afa::stats::Table::num(
                          afa::sim::toUsec(c.peakLatency), 1),
                      afa::stats::Table::num(c.firstIndex)});
    }
    afa::bench::printTable(table, opts.csv);
    auto period = scatter.clusterPeriod(threshold, afa::sim::msec(50));
    std::printf("\nmedian cluster interval: %.1f ms "
                "(configured SMART period: %.1f ms per SSD, %u SSDs "
                "logged)\n",
                afa::sim::toMsec(period),
                afa::sim::toMsec(opts.params.smartPeriod),
                opts.params.scatterDevices);
    if (dump_samples)
        std::fputs(scatter.toText(100).c_str(), stdout);
    afa::bench::reportRunMetrics(run, opts);
    return 0;
}
