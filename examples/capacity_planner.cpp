/**
 * @file
 * Capacity planner: the Section IV-G question -- how many SSDs per
 * CPU core can an AFA host carry before I/O latency degrades? Sweeps
 * the Table II geometries (and an extreme oversubscription point) and
 * recommends a balance.
 *
 * Usage: capacity_planner [--ssds N] [--runtime-ms M] [--seed S]
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
        cfg.getCount("ssds", 64, 1, afa::pcie::kMaxAfaSsds));
    params.runtime = cfg.getMsec("runtime_ms", 1500);
    params.seed = cfg.getUint("seed", 3);
    cfg.rejectUnread("capacity_planner");
    params.profile = TuningProfile::IrqAffinity;

    std::printf("AFA capacity planner: %u SSDs on a %s host\n\n",
                params.ssds,
                afa::host::CpuTopology{}.describe().c_str());

    struct Row
    {
        GeometryVariant variant;
        afa::stats::LadderAggregate agg;
        std::uint64_t ios;
        unsigned runs;
    };
    std::vector<Row> rows;
    for (GeometryVariant variant :
         {GeometryVariant::FourPerCore, GeometryVariant::TwoPerCore,
          GeometryVariant::OnePerCore}) {
        params.variant = variant;
        auto result = ExperimentRunner::run(params);
        rows.push_back(Row{variant, result.aggregate,
                           result.totalIos, result.runs});
    }

    afa::stats::Table table({"ssds/phys-core", "runs", "avg_us",
                             "p99.99_us", "p99.9999_us", "max_us"});
    for (const auto &row : rows) {
        table.addRow({geometryVariantName(row.variant),
                      afa::stats::Table::num(std::uint64_t(row.runs)),
                      afa::stats::Table::num(row.agg.meanUs[0], 1),
                      afa::stats::Table::num(row.agg.meanUs[3], 1),
                      afa::stats::Table::num(row.agg.meanUs[5], 1),
                      afa::stats::Table::num(row.agg.meanUs[6], 1)});
    }
    table.print();

    // Recommendation: densest geometry whose 6-nines stays within
    // 15% of the sparsest geometry's.
    double reference = rows.back().agg.meanUs[5];
    const Row *pick = &rows.back();
    for (const auto &row : rows) {
        if (row.agg.meanUs[5] <= reference * 1.15) {
            pick = &row;
            break; // rows are ordered densest first
        }
    }
    std::printf("\nrecommendation: %s\n",
                geometryVariantName(pick->variant));
    std::printf(
        "  densest packing whose 6-nines latency stays within 15%% "
        "of\n  the 1-SSD-per-core baseline (%.1f vs %.1f us). "
        "Denser packing\n  maximises capacity per host; the paper "
        "(Sec. IV-G) reaches the\n  same conclusion: latency "
        "profiles stay similar while CPU\n  utilisation is low, so "
        "pack SSDs -- but watch the 6-nines.\n",
        pick->agg.meanUs[5], reference);
    return 0;
}
