/**
 * @file
 * The throughput–latency frontier: open-loop arrival-driven traffic
 * swept over offered load, default vs tuned host.
 *
 * Closed-loop figures (one request per thread in flight) can only
 * show the unloaded latency floor. This bench drives the array with
 * the OpenLoopEngine instead: Poisson (or bursty) arrivals at each
 * rung of a rate ladder, submitted through the same scheduler/IRQ/
 * fabric/device path, measuring *response time* — arrival to reap.
 * As the offered load approaches the array's capacity, queueing
 * delay blows up the tail: the p99-vs-offered-load curve bends at
 * the knee, and it bends earlier on the default host than on the
 * tuned one, because scheduler preemption and IRQ migration steal
 * submission capacity before the devices themselves saturate.
 *
 * Each rung runs twice — TuningProfile::Default and ::IrqAffinity —
 * and the table reports offered vs completed rate (their gap plus
 * the final backlog is the saturation signature), the response-time
 * ladder, the >1 ms ACT count, and exact drop accounting.
 *
 * The frontier table is byte-identical at any --jobs and with
 * --telemetry on or off; the windowed digest (per-window p99 and
 * >1 ms counts) prints only under --telemetry.
 *
 * Extra flags over the common set (see common.hh for --mix/--zipf/
 * --burst/--streams and the rest):
 *   --rates R1,R2,...   offered-load ladder in ops/sec
 *                       (default 100k..800k, past device saturation)
 * The ladder sets every rung's rate and open-loop runs have no FIO
 * job, so --rate and --job are refused.
 */

#include "common.hh"

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"

using namespace afa::core;

namespace {

std::vector<double>
parseRates(const std::string &spec)
{
    std::vector<double> rates;
    const char *s = spec.c_str();
    while (*s) {
        char *end = nullptr;
        const double r = std::strtod(s, &end);
        if (end == s || r <= 0.0)
            afa::sim::fatal("fig_frontier: bad --rates entry in '%s'",
                            spec.c_str());
        rates.push_back(r);
        s = end;
        if (*s == ',')
            ++s;
        else if (*s)
            afa::sim::fatal("fig_frontier: bad --rates separator in "
                            "'%s'", spec.c_str());
    }
    if (rates.empty())
        afa::sim::fatal("fig_frontier: --rates is empty");
    return rates;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(argc, argv, {"rate", "job"});
    const auto rates = parseRates(opts.cfg.getString(
        "rates", "100000,200000,400000,600000,800000"));
    const afa::workload::OpenLoopParams &shape = opts.shape;

    const TuningProfile profiles[] = {TuningProfile::Default,
                                      TuningProfile::IrqAffinity};

    RunPlan plan(opts.params);
    std::vector<std::string> labels;
    for (TuningProfile profile : profiles) {
        for (double rate : rates) {
            ExperimentParams params = opts.params;
            params.profile = profile;
            afa::workload::OpenLoopParams ol = shape;
            ol.arrival.ratePerSec = rate;
            params.openLoop = ol;
            labels.push_back(afa::sim::strfmt(
                "%s/r%.0fk", tuningProfileName(profile),
                rate / 1000.0));
            plan.add(labels.back(), std::move(params));
        }
    }

    auto run = afa::bench::executePlan(plan, opts);

    std::printf("=== throughput-latency frontier: open-loop %s "
                "arrivals, %u streams, %.0f%% reads, zipf %.2f ===\n",
                shape.arrival.burstFactor > 1.0
                    ? afa::sim::strfmt(
                          "bursty (x%.0f)",
                          shape.arrival.burstFactor).c_str()
                    : "poisson",
                shape.streams, shape.readFraction * 100.0,
                shape.zipfTheta);

    afa::stats::Table table({"config", "offered/s", "completed/s",
                             "p50_us", "p99_us", "p99.9_us",
                             "gt_1ms", "dropped", "backlog"});
    std::size_t idx = 0;
    for (TuningProfile profile : profiles) {
        (void)profile;
        for (std::size_t r = 0; r < rates.size(); ++r, ++idx) {
            const auto &res = run.results[idx];
            const auto &ol = res.openLoop;
            const auto &h = ol.responseHist;
            table.addRow(
                {labels[idx],
                 afa::stats::Table::num(ol.offeredPerSec(), 0),
                 afa::stats::Table::num(ol.completedPerSec(), 0),
                 afa::stats::Table::num(h.quantile(0.50) / 1e3, 1),
                 afa::stats::Table::num(h.quantile(0.99) / 1e3, 1),
                 afa::stats::Table::num(h.quantile(0.999) / 1e3, 1),
                 afa::stats::Table::num(ol.totals.exceed[0]),
                 afa::stats::Table::num(ol.totals.dropped),
                 afa::stats::Table::num(ol.totals.finalBacklog)});
        }
    }
    afa::bench::printTable(table, opts.csv);

    if (opts.params.telemetryWindow > 0 && !run.telemetry.empty()) {
        // The merged per-window view across every rung: whole-op
        // response-time p99 plus the >1 ms ACT count per window.
        const auto &timeline = run.telemetry;
        std::printf("\ntelemetry timeline (%.0f ms windows, "
                    "response time, all rungs merged):\n",
                    afa::sim::toMsec(timeline.window));
        afa::stats::Table tl({"end_ms", "ops", "p50_us", "p99_us",
                              "gt_1ms"});
        for (const auto &[w, row] : timeline.stages) {
            const auto it = row.find(
                static_cast<std::uint8_t>(afa::obs::Stage::Complete));
            if (it == row.end())
                continue;
            const auto &cell = it->second;
            tl.addRow({afa::stats::Table::num(
                           afa::sim::toMsec((w + 1) *
                                            timeline.window), 0),
                       afa::stats::Table::num(cell.count),
                       afa::stats::Table::num(
                           cell.quantileTicks(0.50) / 1e3, 1),
                       afa::stats::Table::num(
                           cell.quantileTicks(0.99) / 1e3, 1),
                       afa::stats::Table::num(cell.exceed[0])});
        }
        afa::bench::printTable(tl, opts.csv);
    }

    std::printf("\n");
    afa::bench::reportRunMetrics(run, opts);

    std::printf(
        "\nReading: each rung offers a fixed arrival rate; while the "
        "host\nkeeps up, completed/s tracks offered/s and the tail "
        "stays near the\nclosed-loop floor. Past the knee the backlog "
        "grows for the whole\nrun, response time is dominated by "
        "queueing, and the >1 ms count\nexplodes. The default host "
        "bends first: preempted submitters and\nmigrating IRQs cap "
        "its service rate below the tuned host's, which\nrides "
        "closer to the device limit before folding.\n");
    return 0;
}
