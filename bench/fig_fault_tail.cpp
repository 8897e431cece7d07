/**
 * @file
 * Fault-injection companion to Fig. 6: the fig06-style scatter with
 * one limping SSD, split into the three lives of an array.
 *
 * A client drives random reads against a RAID-5 volume over W SSDs.
 * The timeline has three phases of equal length:
 *
 *   healthy   [0, T/3)      every member serves at full speed
 *   limping   [T/3, 2T/3)   one SSD's service time inflates by
 *                           --limp-factor; the volume still routes
 *                           reads to it, so every Wth block rides the
 *                           limping tail (the gray-failure regime the
 *                           driver timeout cannot see)
 *   rebuild   [2T/3, T]     the admin kicks the bad disk: reads of
 *                           its blocks reconstruct from the W-1
 *                           survivors while the rebuild engine
 *                           streams the spare back through the same
 *                           fabric; when the rebuild finishes the
 *                           member rejoins and the tail collapses
 *
 * Run with --trace fault --attribution to see the new span stages
 * (fault_stall / rebuild_io) attribute the inflated tail.
 *
 * Run with --telemetry W to watch the three lives as a time series:
 * a per-window table of whole-IO p99 and ACT >1ms counts prints
 * under the phase table (healthy flat, limping elevated, rebuild
 * spiking then collapsing), and --telemetry-out/--telemetry-csv
 * write the full windowed timeline. The phase table itself is
 * byte-identical with telemetry on or off.
 *
 * Extra flags over the common set:
 *   --width W           volume members in [3, 1024] (default 8)
 *   --limp-ssd D        which member limps, in [0, W-1] (default W/2)
 *   --limp-factor F     latency multiplier while limping, in
 *                       [1, 1000000] (default 8)
 *   --rebuild-blocks N  extent rebuilt, 4 KiB blocks (default 2048)
 *   --faults F          replace the built-in limp plan entirely
 *
 * The one run drives its own client over --width members, so --ssds,
 * --job, --per-device, --seeds, --jobs and the open-loop flags are
 * refused. The artifacts are those of the common set (common.hh).
 */

#include "common.hh"

#include <memory>
#include <vector>

#include "raid/rebuild.hh"
#include "raid/volume.hh"
#include "sim/logging.hh"
#include "stats/histogram.hh"
#include "workload/fio_thread.hh"

using namespace afa::core;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::workload::FioJob;
using afa::workload::FioThread;

namespace {

afa::stats::LatencySummary
phaseSummary(const char *phase, const afa::stats::ScatterLog &scatter,
             Tick from, Tick to)
{
    afa::stats::Histogram hist;
    for (const auto &s : scatter.samples())
        if (s.when >= from && s.when < to)
            hist.record(s.latency);
    return afa::stats::LatencySummary::fromHistogram(phase, hist);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(
        argc, argv,
        {"ssds", "job", "per_device", "seeds", "jobs", "rate", "burst",
         "mix", "zipf", "streams"});
    const afa::sim::Config &cfg = opts.cfg;

    // A RAID-5 volume needs at least three members.
    const unsigned width = static_cast<unsigned>(
        cfg.getCount("width", 8, 3, afa::pcie::kMaxAfaSsds));
    const unsigned limp_ssd = static_cast<unsigned>(
        cfg.getCount("limp_ssd", width / 2, 0, width - 1));
    const double limp_factor = static_cast<double>(
        cfg.getCount("limp_factor", 8, 1, 1000000));
    const std::uint64_t rebuild_blocks =
        cfg.getUint("rebuild_blocks", 2048);
    afa::bench::rejectUnusedFlags(opts);
    const Tick runtime = opts.params.runtime;
    const Tick phase_len = runtime / 3;

    // The built-in plan: one SSD limps for the middle third. A
    // --faults file replaces it wholesale (same driver policy rules).
    auto plan = opts.params.faults;
    if (!plan) {
        auto p = std::make_shared<afa::fault::FaultPlan>();
        afa::fault::FaultEvent limp;
        limp.kind = afa::fault::FaultKind::Limp;
        limp.ssd = limp_ssd;
        limp.at = phase_len;
        limp.duration = phase_len;
        limp.factor = limp_factor;
        p->events.push_back(limp);
        plan = p;
    }

    ExperimentParams params = opts.params;
    params.ssds = width;
    params.profile = TuningProfile::IrqAffinity;
    params.faults = plan;
    Geometry geometry(afa::host::CpuTopology(params.topology), width);
    TuningConfig tuning =
        TuningConfig::forProfile(params.profile, geometry);
    Testbed tb(params, tuning, params.seed);
    Simulator &sim = tb.sim();
    AfaSystem &system = tb.system();

    std::vector<unsigned> members;
    for (unsigned d = 0; d < width; ++d)
        members.push_back(d);
    afa::raid::ParityVolume volume(sim, "vol0", system.ioEngine(),
                                   members, 1);

    FioJob job;
    job.rw = afa::workload::RwMode::RandRead;
    job.blockSize = 4096;
    job.runtime = runtime;
    job.cpusAllowed = afa::host::CpuMask(1) << geometry.fioCpus()[0];
    job.rtPriority = tuning.fioRtPriority;
    job.name = "client";
    FioThread client(sim, "client", system.scheduler(), volume, 0,
                     job);
    afa::stats::ScatterLog scatter;
    client.attachScatterLog(&scatter);
    if (tb.spanLog())
        client.attachSpanLog(tb.spanLog());

    // The rebuild: read every survivor, write the replaced member,
    // through the same driver/fabric as the client's IO.
    afa::raid::RebuildParams reb;
    for (unsigned d = 0; d < width; ++d)
        if (d != limp_ssd)
            reb.sources.push_back(d);
    reb.target = limp_ssd;
    reb.blocks = rebuild_blocks;
    reb.cpu = geometry.fioCpus()[0];
    afa::raid::RebuildEngine rebuild(sim, "rebuild0",
                                     system.ioEngine(), reb);
    if (tb.spanLog())
        rebuild.attachSpanLog(tb.spanLog());
    rebuild.setOnComplete([&] {
        volume.setMemberFailed(limp_ssd, false);
    });
    if (afa::obs::Telemetry *telemetry = tb.telemetry()) {
        // Rebuild progress and the volume's degraded-read rate make
        // the kick -> refill -> rejoin arc legible in the timeline.
        telemetry->addGauge("rebuild.blocks_done", [&rebuild] {
            return static_cast<double>(rebuild.stats().blocksDone);
        });
        telemetry->addCounter("volume.degraded_reads", [&volume] {
            return volume.stats().degradedReads;
        });
    }

    // At 2T/3 the admin pulls the limping disk: reads reconstruct
    // from the survivors while the spare refills in the background.
    sim.scheduleAt(2 * phase_len, [&] {
        volume.setMemberFailed(limp_ssd, true);
        rebuild.start(sim.now());
    });

    // No drain: the last telemetry window ends at runtime + 200 ms.
    tb.start();
    client.start(0);
    sim.run(runtime + afa::sim::msec(200));
    ExperimentResult result;
    tb.collect(result);

    std::printf("=== fault tail: RAID-5 over %u SSDs, member %u "
                "limping x%.0f for the middle third ===\n",
                width, limp_ssd, limp_factor);
    std::fputs(plan->summary().c_str(), stdout);

    afa::stats::Table table({"phase", "ios", "avg_us", "p99_us",
                             "p99.9_us", "max_us"});
    struct PhaseDef { const char *name; Tick from, to; };
    const PhaseDef phases[] = {
        {"healthy", 0, phase_len},
        {"limping", phase_len, 2 * phase_len},
        {"rebuild+recovered", 2 * phase_len,
         runtime + afa::sim::msec(200)},
    };
    for (const auto &ph : phases) {
        auto s = phaseSummary(ph.name, scatter, ph.from, ph.to);
        table.addRow({ph.name, afa::stats::Table::num(s.samples),
                      afa::stats::Table::num(s.ladderUs[0], 1),
                      afa::stats::Table::num(s.ladderUs[1], 1),
                      afa::stats::Table::num(s.ladderUs[2], 1),
                      afa::stats::Table::num(s.maxUs, 1)});
    }
    afa::bench::printTable(table, opts.csv);

    if (!result.telemetry.empty()) {
        // The same three lives as a time series: whole-IO windowed
        // p99 plus the ACT >1ms count per window. Healthy windows sit
        // flat, limping windows lift the p99, the rebuild windows
        // spike it, and the tail collapses once the spare rejoins.
        const auto &timeline = result.telemetry;
        std::printf("\ntelemetry timeline (%.0f ms windows, whole-IO "
                    "latency):\n",
                    afa::sim::toMsec(timeline.window));
        afa::stats::Table tl({"end_ms", "ios", "p50_us", "p99_us",
                              "gt_1ms", "degraded", "rebuilt_blocks"});
        for (const auto &[w, row] : timeline.stages) {
            const auto it = row.find(
                static_cast<std::uint8_t>(afa::obs::Stage::Complete));
            if (it == row.end())
                continue;
            const auto &cell = it->second;
            std::uint64_t degraded = 0;
            double rebuilt = 0.0;
            if (const auto *s = timeline.seriesPoint(
                    "volume.degraded_reads", w))
                degraded = s->delta;
            if (const auto *s =
                    timeline.seriesPoint("rebuild.blocks_done", w))
                rebuilt = s->value;
            tl.addRow({afa::stats::Table::num(
                           afa::sim::toMsec((w + 1) *
                                            timeline.window), 0),
                       afa::stats::Table::num(cell.count),
                       afa::stats::Table::num(
                           cell.quantileTicks(0.50) / 1e3, 1),
                       afa::stats::Table::num(
                           cell.quantileTicks(0.99) / 1e3, 1),
                       afa::stats::Table::num(cell.exceed[0]),
                       afa::stats::Table::num(degraded),
                       afa::stats::Table::num(rebuilt, 0)});
        }
        afa::bench::printTable(tl, opts.csv);
    }

    const auto &vs = volume.stats();
    const auto &rs = rebuild.stats();
    std::printf("\nvolume: %llu client IOs, %llu member IOs, "
                "%llu degraded reads, %llu failed\n",
                (unsigned long long)vs.clientIos,
                (unsigned long long)vs.memberIos,
                (unsigned long long)vs.degradedReads,
                (unsigned long long)vs.failedIos);
    std::printf("rebuild: %llu/%llu blocks in %llu chunks%s\n",
                (unsigned long long)rs.blocksDone,
                (unsigned long long)rebuild_blocks,
                (unsigned long long)rs.chunks,
                rs.done
                    ? afa::sim::strfmt(
                          ", done at %.1f ms",
                          afa::sim::toMsec(rs.finishedAt)).c_str()
                    : " (still running at end of run)");
    const auto &ds = system.driverStats();
    std::printf("driver: %llu timeouts, %llu retries, %llu aborts\n",
                (unsigned long long)ds.timeouts,
                (unsigned long long)ds.retries,
                (unsigned long long)ds.aborts);

    std::printf("\n");
    afa::bench::printDetails(result, opts);
    std::printf(
        "Reading: the limping member drags every ~1/%uth read into "
        "its\ninflated service time -- the gray failure a driver "
        "timeout cannot\nsee. Kicking the disk trades that for "
        "reconstruction reads plus\nrebuild contention, and once the "
        "spare is rebuilt the tail\ncollapses back to the healthy "
        "profile.\n", width);
    afa::bench::writeArtifacts(afa::bench::foldedRun(std::move(result)),
                               opts);
    return 0;
}
