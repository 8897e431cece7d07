/**
 * @file
 * Ablation A6: the tail-at-scale motivation of Section I, measured.
 * "One request from a client is divided into multiple I/Os ... even
 * if one SSD out of many shows long tail latency, the entire I/O
 * from the client is delayed by the same amount."
 *
 * A client read is striped across W member SSDs (RAID-0, 4 KiB
 * strips) and completes with the slowest member. Sweeping W under
 * the default and the tuned host shows why the paper's host tuning
 * matters more the wider the array: the client's p99 approaches the
 * members' tail as W grows.
 *
 * With --telemetry W_ms the sweep also prints a windowed view: per
 * tuning profile, one row per sampling window with the client's
 * whole-IO p99 at every stripe width — the SMART-spike windows that
 * a whole-run p99 averages away stand out as rows. The sweep table
 * itself stays byte-identical with telemetry on or off.
 *
 * --faults F injects the plan into every run of the sweep, so a
 * limping member shows up as the client's tail. The sweep starts at
 * width 1, where only ssd0 exists: a plan naming another SSD fails
 * there with a fatal error.
 *
 * The sweep's runs fold into one result: --attribution covers all of
 * them, --report is the last run's, --trace-out the first run's, and
 * the telemetry files and --metrics-json hold the merged timeline and
 * counters. The sweep sets its own widths and client, so --ssds,
 * --job, --per-device, --seeds, --jobs and the open-loop flags are
 * refused.
 */

#include "common.hh"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "raid/volume.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/fio_thread.hh"

using namespace afa::core;
using afa::workload::FioJob;
using afa::workload::FioThread;

namespace {

/**
 * Run one width of the sweep and return the client's latency summary.
 * The run folds into @p sweep; the first one keeps its spans.
 */
afa::stats::LatencySummary
runClient(const afa::bench::BenchOptions &opts, TuningProfile profile,
          unsigned width, ExperimentResult &sweep,
          afa::obs::TelemetryTimeline *timeline_out = nullptr)
{
    ExperimentParams params = opts.params;
    params.ssds = width;
    params.keepSpans = params.keepSpans && sweep.runs == 0;
    Geometry geometry(afa::host::CpuTopology(params.topology), width);
    TuningConfig tuning = TuningConfig::forProfile(profile, geometry);
    // Per-width simulator seed via a named fork of the experiment
    // seed: additive seed+width arithmetic would make width W at
    // --seed S replay as width W-1 at --seed S+1; the fork keys each
    // width into its own independent stream.
    Testbed tb(params, tuning,
               afa::sim::Rng(params.seed)
                   .fork(afa::sim::strfmt("tail_at_scale.width%u",
                                          width))
                   .seed());
    AfaSystem &system = tb.system();

    std::vector<unsigned> members;
    for (unsigned d = 0; d < width; ++d)
        members.push_back(d);
    afa::raid::StripedVolume volume(tb.sim(), "vol0", system.ioEngine(),
                                    members, 1);

    FioJob job;
    job.rw = afa::workload::RwMode::RandRead;
    job.blockSize = 4096 * width; // one strip per member
    job.runtime = params.runtime;
    job.cpusAllowed = afa::host::CpuMask(1)
        << geometry.fioCpus()[0];
    job.rtPriority = tuning.fioRtPriority;
    job.name = "client";
    FioThread client(tb.sim(), "client", system.scheduler(),
                     volume, 0, job);
    if (tb.spanLog())
        client.attachSpanLog(tb.spanLog());
    tb.start();
    client.start(0);
    tb.sim().run(params.runtime + afa::sim::msec(200));
    // Nothing of the span log reaches the sweep table, which
    // therefore stays byte-identical with telemetry on or off.
    ++sweep.runs;
    tb.collect(sweep);
    if (timeline_out != nullptr && tb.telemetry() != nullptr)
        *timeline_out = tb.telemetry()->timeline();
    return afa::stats::LatencySummary::fromHistogram(
        afa::sim::strfmt("stripe-%u", width), client.histogram());
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseOptions(
        argc, argv,
        {"ssds", "job", "per_device", "seeds", "jobs", "rate", "burst",
         "mix", "zipf", "streams"});
    afa::bench::rejectUnusedFlags(opts);

    afa::stats::Table table({"config", "width", "client_ios",
                             "avg_us", "p99_us", "p99.9_us",
                             "max_us"});
    const bool windowed = opts.params.telemetryWindow > 0;
    // profile -> width -> windowed timeline (only in --telemetry runs).
    std::map<TuningProfile, std::map<unsigned,
                                     afa::obs::TelemetryTimeline>>
        timelines;
    ExperimentResult sweep;
    for (TuningProfile profile :
         {TuningProfile::Default, TuningProfile::IrqAffinity}) {
        for (unsigned width : {1u, 4u, 16u, 64u}) {
            auto s = runClient(opts, profile, width, sweep,
                               windowed
                                   ? &timelines[profile][width]
                                   : nullptr);
            table.addRow({tuningProfileName(profile),
                          afa::stats::Table::num(
                              std::uint64_t(width)),
                          afa::stats::Table::num(s.samples),
                          afa::stats::Table::num(s.ladderUs[0], 1),
                          afa::stats::Table::num(s.ladderUs[1], 1),
                          afa::stats::Table::num(s.ladderUs[2], 1),
                          afa::stats::Table::num(s.ladderUs[6], 1)});
        }
    }
    std::printf("=== A6: tail at scale -- striped client reads "
                "(Section I motivation) ===\n");
    afa::bench::printTable(table, opts.csv);
    if (windowed) {
        // The same sweep sliced into sampling windows: one row per
        // window, the client's whole-IO p99 at every stripe width.
        const auto stage_id =
            static_cast<std::uint8_t>(afa::obs::Stage::Complete);
        for (auto &[profile, byWidth] : timelines) {
            std::printf("\nwindowed client p99 (usec), %s profile "
                        "(%.0f ms windows):\n",
                        tuningProfileName(profile),
                        afa::sim::toMsec(
                            opts.params.telemetryWindow));
            std::vector<std::string> cols{"end_ms"};
            for (const auto &[width, tl] : byWidth)
                cols.push_back(afa::sim::strfmt("w%u", width));
            afa::stats::Table wt(cols);
            std::set<std::uint64_t> windows;
            for (const auto &[width, tl] : byWidth)
                for (const auto &[w, row] : tl.stages)
                    if (row.count(stage_id))
                        windows.insert(w);
            for (std::uint64_t w : windows) {
                std::vector<std::string> cells{afa::stats::Table::num(
                    afa::sim::toMsec(
                        (w + 1) * opts.params.telemetryWindow), 0)};
                for (const auto &[width, tl] : byWidth) {
                    std::string text = "-";
                    const auto row = tl.stages.find(w);
                    if (row != tl.stages.end()) {
                        const auto c = row->second.find(stage_id);
                        if (c != row->second.end())
                            text = afa::stats::Table::num(
                                c->second.quantileTicks(0.99) / 1e3,
                                1);
                    }
                    cells.push_back(text);
                }
                wt.addRow(cells);
            }
            afa::bench::printTable(wt, opts.csv);
        }
    }
    std::printf("\n");
    afa::bench::printDetails(sweep, opts);
    std::printf(
        "Reading: the client completes with the *slowest* of W "
        "members.\nUnder the default kernel the per-member tail is "
        "long, so the\nclient p99 degrades sharply with W and the "
        "max rides the\nmillisecond scheduler tail; on the tuned "
        "host the client tail is\npinned to the SMART ceiling "
        "regardless of W -- the reason AFA\ndeployments must care "
        "about per-SSD tails.\n\nNuance the sweep also exposes: "
        "pinning every vector to the\nsubmitting CPU serialises all "
        "W completion interrupts of a fan-out\nread onto one core "
        "(higher avg at W=64), while irqbalance's\nspreading "
        "parallelises them -- affinity tuning is per-workload, "
        "not\nuniversally optimal.\n");
    afa::bench::writeArtifacts(afa::bench::foldedRun(std::move(sweep)),
                               opts);
    return 0;
}
