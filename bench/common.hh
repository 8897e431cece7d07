/**
 * @file
 * The benches' one front end: argv parsing, the run-plan executor, the
 * figure and detail blocks, and the one writer of every artifact.
 *
 * Argv is parsed once per invocation, into BenchOptions::cfg:
 * parseOptions() reads the common flags below and a bench reads its own
 * from opts.cfg. Before the first simulated event, rejectUnusedFlags()
 * (executePlan() calls it) fails through fatal() on every flag that no
 * code read, every flag the bench cannot act on and every positional
 * argument, naming each one.
 *
 * Common flags (a count or millisecond value out of its range fails
 * through fatal(), naming the flag; a millisecond value is at most
 * 18446744073709, the Tick range):
 *   --ssds N          devices in [1, 1024] (default 64, the paper's
 *                     host slice; 1024 is what one AFA fabric holds)
 *   --runtime-ms M    per-run measurement (default 4000; the paper
 *                     ran 120000 -- pass it for full fidelity)
 *   --seed S          root random seed
 *   --smart-period-ms SMART cadence (default 1000; paper ~30000,
 *                     scaled so spikes-per-run matches 120s/30s)
 *   --irqbalance-ms   irqbalance rescan cadence (default 1000;
 *                     daemon default 10000, same scaling)
 *   --job SPEC        every FIO thread's per-IO options (default
 *                     "rw=randread bs=4k iodepth=1"). The run sets
 *                     name, runtime, cpus_allowed, rtprio and
 *                     polling itself, so those keys are refused
 *   --csv             emit CSV instead of aligned tables
 *   --jobs N          worker threads for the run plan in [0, 256]
 *                     (default 1; 0 = all hardware threads). Results
 *                     are bit-identical to a serial run.
 *   --seeds N         replicate every case with seeds S..S+N-1, N in
 *                     [1, 1000], and aggregate the ladders across
 *                     replicas
 *   --trace C[,C...]  enable span tracing for the listed categories
 *                     (workload,sched,pcie,nvme,smart,ftl,nand,irq,
 *                     fault or "all"); figures stay bit-identical,
 *                     the system metrics are added
 *   --faults F        load a fault plan from spec file F and inject
 *                     it into every run (see src/fault/fault_plan.hh
 *                     for the spec format); arms the driver
 *                     timeout/retry policy and publishes the fault
 *                     counters in --metrics-json
 *   --fault-summary   print the parsed fault plan before running
 *   --device-fastpath B  single-event device command fast path
 *                     (default 1). 0 forces the chained event model;
 *                     results are bit-identical, only slower -- the
 *                     A/B is the exactness check (DESIGN.md §9)
 *   --telemetry W     sample a windowed telemetry timeline every W
 *                     simulated milliseconds (DESIGN.md §13): per-
 *                     stage latency histograms with ACT-style
 *                     exceed counters, counter/gauge series, and
 *                     the simulator self-profile. Figures stay
 *                     byte-identical with or without it
 *
 * Detail blocks, printed for every case under the figures:
 *   --per-device      the full per-device ladder
 *   --report          the system attribution report of the case's
 *                     last run
 *   --attribution     the per-stage latency attribution table
 *                     (implies --trace all when --trace is absent)
 *
 * Artifacts, each written once per invocation by writeArtifacts():
 *   --trace-out F     Chrome/Perfetto trace-event JSON of the first
 *                     run of the first case, with that case's
 *                     telemetry windows as counter tracks (implies
 *                     --trace all when --trace is absent)
 *   --telemetry-out F the invocation's merged timeline as JSON lines
 *                     (implies --telemetry 100 when absent)
 *   --telemetry-csv F the same timeline as tidy CSV (same default)
 *   --metrics-json F  {run_metrics, system_metrics, telemetry}: the
 *                     run plan's execution metrics, the component
 *                     counters summed over every run (present when
 *                     tracing or a fault plan is on) and the merged
 *                     timeline (when sampled)
 *
 * Open-loop traffic flags (DESIGN.md §14). A non-zero --rate switches
 * every run from closed-loop FIO threads to the arrival-driven
 * OpenLoopEngine; the shape flags act only on open-loop runs:
 *   --rate R          aggregate offered load in ops/sec, at least 0
 *                     (0 = closed loop, the default)
 *   --mix P           read percentage of the mixed workload, in
 *                     [0, 100] (default 100 = pure reads)
 *   --zipf T          zipfian theta in [0, 1) for hot-spot device
 *                     addressing (default 0 = uniform)
 *   --burst B         burst factor, at least 1: arrivals come from an
 *                     on/off process firing at B x the mean rate with
 *                     duty cycle 1/B (default 1 = plain Poisson)
 *   --streams N       independent submitter streams in [1, 1024]
 *                     (default 4)
 */

#ifndef AFA_BENCH_COMMON_HH
#define AFA_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_plan.hh"
#include "fault/fault_plan.hh"
#include "obs/perfetto.hh"
#include "pcie/afa_topology.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace afa::bench {

/** Ceilings of the count flags (--ssds has the fabric's). */
constexpr std::uint64_t kMaxJobs = 256;
constexpr std::uint64_t kMaxSeeds = 1000;
constexpr std::uint64_t kMaxStreams = 1024;

struct BenchOptions
{
    /** The invocation's flags; a bench reads its own from here. */
    afa::sim::Config cfg;
    /** The bench's name (argv[0] without its directory). */
    std::string program;
    /** Given flags the bench cannot act on (parseOptions' list). */
    std::vector<std::string> unusable;

    afa::core::ExperimentParams params;
    /** The open-loop traffic shape; params.openLoop carries it, with
     *  the --rate, when --rate is given. */
    afa::workload::OpenLoopParams shape;
    bool csv = false;
    bool perDevice = false;
    unsigned jobs = 1;
    unsigned seeds = 1;
    std::string metricsJsonPath;
    std::string traceOutPath;
    bool attribution = false;
    std::string telemetryOutPath;
    std::string telemetryCsvPath;
};

/** Parse argv into BenchOptions::cfg; nothing is read yet. */
inline BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;
    const std::string path = argv[0];
    opts.program = path.substr(path.find_last_of('/') + 1);
    opts.cfg.parseArgs(argc - 1, argv + 1);
    return opts;
}

/**
 * Parse argv and read the common flags. @p unusable names the common
 * flags (dashes as underscores) this bench cannot act on, because it
 * sets that knob itself; each one given fails rejectUnusedFlags().
 */
inline BenchOptions
parseOptions(int argc, char **argv,
             std::initializer_list<const char *> unusable = {})
{
    BenchOptions opts = parseArgs(argc, argv);
    const afa::sim::Config &cfg = opts.cfg;
    for (const char *key : unusable)
        if (cfg.has(key))
            opts.unusable.push_back(key);
    auto &p = opts.params;
    p.ssds = static_cast<unsigned>(
        cfg.getCount("ssds", 64, 1, afa::pcie::kMaxAfaSsds));
    p.runtime = cfg.getMsec("runtime_ms", 4000);
    p.seed = cfg.getUint("seed", 1);
    p.smartPeriod = cfg.getMsec("smart_period_ms", 1000);
    p.irqBalanceInterval = cfg.getMsec("irqbalance_ms", 1000);
    p.job = afa::workload::FioJob::parse(
        cfg.getString("job", "rw=randread bs=4k iodepth=1"));
    // The shape is read on every run, so a malformed number fails even
    // when no --rate makes the run open-loop.
    const double rate = cfg.getDouble("rate", 0.0);
    if (rate < 0.0)
        afa::sim::fatal("--rate %g: must be at least 0 ops/s", rate);
    const double burst = cfg.getDouble("burst", 1.0);
    if (burst < 1.0)
        afa::sim::fatal("--burst %g: must be at least 1 (1 = plain "
                        "Poisson)",
                        burst);
    opts.shape.arrival.burstFactor = burst;
    const double mix = cfg.getDouble("mix", 100.0);
    if (mix < 0.0 || mix > 100.0)
        afa::sim::fatal("--mix %g: must be in [0, 100]", mix);
    opts.shape.readFraction = mix / 100.0;
    const double zipf = cfg.getDouble("zipf", 0.0);
    if (zipf < 0.0 || zipf >= 1.0)
        afa::sim::fatal("--zipf %g: must be in [0, 1)", zipf);
    opts.shape.zipfTheta = zipf;
    opts.shape.streams = static_cast<unsigned>(
        cfg.getCount("streams", 4, 1, kMaxStreams));
    if (rate > 0.0) {
        p.openLoop = opts.shape;
        p.openLoop->arrival.ratePerSec = rate;
    }
    opts.csv = cfg.getBool("csv", false);
    opts.perDevice = cfg.getBool("per_device", false);
    p.captureSystemReport = cfg.getBool("report", false);
    opts.jobs = static_cast<unsigned>(cfg.getCount("jobs", 1, 0, kMaxJobs));
    opts.seeds =
        static_cast<unsigned>(cfg.getCount("seeds", 1, 1, kMaxSeeds));
    opts.metricsJsonPath = cfg.getString("metrics_json", "");
    std::string trace = cfg.getString("trace", "");
    if (!trace.empty())
        p.traceMask = afa::obs::parseCategories(trace);
    opts.traceOutPath = cfg.getString("trace_out", "");
    opts.attribution = cfg.getBool("attribution", false);
    p.deviceFastPath = cfg.getBool("device_fastpath", true);
    std::string fault_path = cfg.getString("faults", "");
    if (!fault_path.empty())
        p.faults = std::make_shared<afa::fault::FaultPlan>(
            afa::fault::FaultPlan::parseFile(fault_path));
    if (cfg.getBool("fault_summary", false)) {
        if (!p.faults)
            std::printf("fault plan: none (pass --faults=<file>)\n");
        else
            std::fputs(p.faults->summary().c_str(), stdout);
    }
    // A trace consumer without an explicit category list gets all of
    // them; the Perfetto export additionally needs the raw records.
    if ((!opts.traceOutPath.empty() || opts.attribution) &&
        p.traceMask == 0)
        p.traceMask = afa::obs::kAllCategories;
    p.keepSpans = !opts.traceOutPath.empty();
    p.telemetryWindow = cfg.getMsec("telemetry", 0);
    opts.telemetryOutPath = cfg.getString("telemetry_out", "");
    opts.telemetryCsvPath = cfg.getString("telemetry_csv", "");
    // A timeline consumer without an explicit window gets the 100 ms
    // default cadence.
    if ((!opts.telemetryOutPath.empty() ||
         !opts.telemetryCsvPath.empty()) &&
        p.telemetryWindow == 0)
        p.telemetryWindow = afa::sim::msec(100);
    return opts;
}

/**
 * Fail through fatal(), naming each one, on every flag no code read,
 * every flag in opts.unusable or @p unused and every positional
 * argument. Call it once the bench has read its own flags and before
 * the first simulated event; executePlan() does.
 */
inline void
rejectUnusedFlags(const BenchOptions &opts,
                  std::vector<std::string> unused = {})
{
    unused.insert(unused.end(), opts.unusable.begin(),
                  opts.unusable.end());
    opts.cfg.rejectUnread(opts.program, unused);
}

inline void
printTable(const afa::stats::Table &table, bool csv)
{
    if (csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        table.print();
}

/** Results and execution metrics of one bench invocation. */
struct PlanRun
{
    /** One result per planned case, seed replicas merged, in order. */
    std::vector<afa::core::ExperimentResult> results;
    /** Each case's label, without the seed suffix. */
    std::vector<std::string> labels;
    afa::stats::Table metricsTable{{"run"}};
    /** The run plan's execution metrics (empty without a plan). */
    std::string metricsJson;
    double wallSeconds = 0.0;
    unsigned jobs = 1;
    std::size_t runs = 0;

    /** System metrics merged over every case (empty unless --trace
     *  or --faults). */
    afa::obs::MetricsSnapshot systemMetrics;

    /** Telemetry timeline merged over every case (empty unless
     *  --telemetry). */
    afa::obs::TelemetryTimeline telemetry;
};

/**
 * Check the flags, expand @p plan with the --seeds replication,
 * execute it on a --jobs-wide worker pool, and fold the seed replicas
 * of each case back into one result. Only the first run keeps its
 * spans for --trace-out.
 */
inline PlanRun
executePlan(afa::core::RunPlan &plan, const BenchOptions &opts)
{
    plan.seeds(opts.seeds);
    auto descriptors = plan.expand();

    // The traffic shape acts only on open-loop runs.
    std::vector<std::string> unused;
    if (std::none_of(descriptors.begin(), descriptors.end(),
                     [](const afa::core::RunDescriptor &d) {
                         return d.params.openLoop.has_value();
                     }))
        for (const char *key : {"burst", "mix", "zipf", "streams"})
            if (opts.cfg.has(key))
                unused.push_back(key);
    rejectUnusedFlags(opts, unused);
    for (std::size_t i = 1; i < descriptors.size(); ++i)
        descriptors[i].params.keepSpans = false;

    afa::core::ParallelExperimentRunner runner(opts.jobs);
    runner.setProgress(true);
    auto raw = runner.run(descriptors);

    PlanRun out;
    out.jobs = runner.jobs();
    out.runs = descriptors.size();
    out.wallSeconds = runner.suiteWallSeconds();
    out.metricsTable = runner.metricsTable();
    out.metricsJson = runner.metricsJson();
    for (std::size_t base = 0; base < raw.size();
         base += opts.seeds) {
        std::vector<const afa::core::ExperimentResult *> group;
        for (unsigned rep = 0;
             rep < opts.seeds && base + rep < raw.size(); ++rep)
            group.push_back(&raw[base + rep]);
        out.results.push_back(
            afa::core::ParallelExperimentRunner::mergeReplicas(
                group));
        out.systemMetrics.merge(out.results.back().systemMetrics);
        out.telemetry.merge(out.results.back().telemetry);
        std::string label = descriptors[base].label;
        if (opts.seeds > 1) {
            const std::size_t slash = label.find_last_of('/');
            label = slash == std::string::npos ? "run"
                                               : label.substr(0, slash);
        }
        out.labels.push_back(std::move(label));
    }
    return out;
}

/**
 * The PlanRun of a bench that drives its own Testbed runs and folds
 * them into one result, so the same writers serve it.
 */
inline PlanRun
foldedRun(afa::core::ExperimentResult result)
{
    PlanRun run;
    run.systemMetrics = result.systemMetrics;
    run.telemetry = result.telemetry;
    run.results.push_back(std::move(result));
    return run;
}

/** Write @p text to @p path (binary, whole-file). */
inline bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s to %s\n", what,
                     path.c_str());
        return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

/**
 * The one writer of every artifact: --trace-out (the first run of the
 * first case), --telemetry-out and --telemetry-csv (the merged
 * timeline) and --metrics-json.
 */
inline void
writeArtifacts(const PlanRun &run, const BenchOptions &opts)
{
    if (!opts.traceOutPath.empty() && !run.results.empty()) {
        const afa::core::ExperimentResult &first = run.results.front();
        if (afa::obs::writePerfettoJson(
                opts.traceOutPath, first.spans,
                first.telemetry.empty() ? nullptr : &first.telemetry))
            std::printf("perfetto trace (%zu spans) written to %s\n",
                        first.spans.size(), opts.traceOutPath.c_str());
    }
    if (!opts.telemetryOutPath.empty() &&
        writeTextFile(opts.telemetryOutPath,
                      run.telemetry.toJsonLines(), "telemetry JSONL"))
        std::printf("telemetry timeline written to %s\n",
                    opts.telemetryOutPath.c_str());
    if (!opts.telemetryCsvPath.empty() &&
        writeTextFile(opts.telemetryCsvPath, run.telemetry.toCsv(),
                      "telemetry CSV"))
        std::printf("telemetry CSV written to %s\n",
                    opts.telemetryCsvPath.c_str());
    if (!opts.metricsJsonPath.empty()) {
        // One file captures the whole invocation: the execution
        // metrics next to the system metrics and the timeline.
        std::string json = "{\n";
        if (!run.metricsJson.empty())
            json += "\"run_metrics\": " + run.metricsJson + ",\n";
        json += "\"system_metrics\": ";
        json += run.systemMetrics.toJson("  ");
        if (!run.telemetry.empty()) {
            json += ",\n\"telemetry\": ";
            json += run.telemetry.toJson("  ");
        }
        json += "\n}\n";
        if (writeTextFile(opts.metricsJsonPath, json, "metrics JSON"))
            std::printf("metrics JSON written to %s\n",
                        opts.metricsJsonPath.c_str());
    }
}

/** The figure block of one case: its summary and latency envelope. */
inline void
reportFigure(const char *figure, const char *caption,
             const afa::core::ExperimentResult &result,
             const BenchOptions &opts)
{
    std::printf("=== %s: %s ===\n", figure, caption);
    std::fputs(afa::core::describeExperiment(result).c_str(), stdout);
    std::printf("\nlatency envelope across %zu devices (usec):\n",
                result.perDevice.size());
    printTable(afa::core::envelopeTable(result), opts.csv);
    std::printf("\n");
}

/**
 * Print the detail blocks of one case: --per-device, --report and
 * --attribution, under a "--- details: <label> ---" line when @p label
 * is given. Like a figure block, each one ends with a blank line.
 */
inline void
printDetails(const afa::core::ExperimentResult &result,
             const BenchOptions &opts, const std::string &label = "")
{
    const bool attribution =
        opts.attribution && !result.attribution.empty();
    if (!opts.perDevice && result.systemReportText.empty() &&
        !attribution)
        return;
    if (!label.empty())
        std::printf("--- details: %s ---\n", label.c_str());
    if (opts.perDevice) {
        std::printf("per-device ladder (usec):\n");
        printTable(afa::core::perDeviceTable(result), opts.csv);
        std::printf("\n");
    }
    if (!result.systemReportText.empty())
        std::printf("%s\n", result.systemReportText.c_str());
    if (attribution) {
        std::printf("latency attribution:\n");
        printTable(result.attribution.table(), opts.csv);
        std::printf("\n");
    }
}

/**
 * The end of every executePlan() bench's report, after its figures
 * (which end with a blank line): each case's detail blocks, the
 * run-metrics block (and the system metrics when traced), then the
 * artifacts.
 */
inline void
reportRunMetrics(const PlanRun &run, const BenchOptions &opts)
{
    for (std::size_t i = 0; i < run.results.size(); ++i)
        printDetails(run.results[i], opts, run.labels[i]);
    std::printf("=== run metrics: %zu runs, %u workers, %.2f s "
                "wall ===\n",
                run.runs, run.jobs, run.wallSeconds);
    printTable(run.metricsTable, opts.csv);
    if (!run.systemMetrics.empty()) {
        std::printf("\nsystem metrics (summed over %zu runs):\n",
                    run.runs);
        printTable(run.systemMetrics.table(), opts.csv);
    }
    writeArtifacts(run, opts);
}

} // namespace afa::bench

#endif // AFA_BENCH_COMMON_HH
