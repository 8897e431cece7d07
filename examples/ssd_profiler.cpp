/**
 * @file
 * SSD profiling framework example (Section I / VI): profile a batch
 * of NVMe SSDs in parallel on a tuned AFA host, versus one at a time,
 * and show the wall-clock advantage of parallel profiling -- the
 * paper's "finish the same task x10 or even x100 faster while still
 * using a single host server" claim.
 *
 * Also demonstrates the span-tracing facility (the LTTng analogue):
 * with --trace, every profiled IO is decomposed into typed latency
 * stages and the per-stage attribution table is printed -- the same
 * diagnosis loop the paper ran with LTTng + blktrace, without
 * re-running anything.
 *
 * With --faults, a fault plan (see src/fault/fault_plan.hh) is
 * injected into the profiled batch: the outlier screen catches the
 * misbehaving device and the attribution table shows the new fault
 * stages (fault_stall / retry_wait) carrying the inflated tail --
 * profiling as fault triage.
 *
 * With --telemetry W (window in simulated ms), the profile is also
 * sliced into a windowed timeline: per-stage latency histograms with
 * ACT-style exceed counters, driver/fabric series, and the simulator
 * self-profile. --telemetry-out / --telemetry-csv write it out; the
 * profile tables above stay byte-identical either way.
 *
 * Usage: ssd_profiler [--ssds N] [--runtime-ms M] [--trace]
 *                     [--trace-out FILE] [--faults PLAN]
 *                     [--telemetry W] [--telemetry-out FILE]
 *                     [--telemetry-csv FILE]
 */

#include <cstdio>
#include <memory>

#include "core/experiment.hh"
#include "core/report.hh"
#include "fault/fault_plan.hh"
#include "obs/perfetto.hh"
#include "pcie/afa_topology.hh"
#include "sim/config.hh"

using namespace afa::core;

namespace {

double
simulatedHours(afa::sim::Tick per_device, unsigned devices,
               unsigned parallel)
{
    unsigned batches = (devices + parallel - 1) / parallel;
    return afa::sim::toSec(per_device) * batches / 3600.0;
}

} // namespace

int
main(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);

    ExperimentParams params;
    params.ssds = static_cast<unsigned>(
        cfg.getCount("ssds", 32, 1, afa::pcie::kMaxAfaSsds));
    params.runtime = cfg.getMsec("runtime_ms", 1500);
    params.seed = cfg.getUint("seed", 7);
    params.profile = TuningProfile::IrqAffinity;
    params.smartPeriod = afa::sim::msec(500);
    params.backgroundLoad = false;

    const bool trace = cfg.getBool("trace", false);
    const std::string trace_out = cfg.getString("trace_out", "");
    if (trace || !trace_out.empty()) {
        params.traceMask = afa::obs::kAllCategories;
        params.keepSpans = !trace_out.empty();
    }

    const std::string telemetry_out =
        cfg.getString("telemetry_out", "");
    const std::string telemetry_csv =
        cfg.getString("telemetry_csv", "");
    params.telemetryWindow = cfg.getMsec("telemetry", 0);
    if ((!telemetry_out.empty() || !telemetry_csv.empty()) &&
        params.telemetryWindow == 0)
        params.telemetryWindow = afa::sim::msec(100);

    const std::string fault_path = cfg.getString("faults", "");
    cfg.rejectUnread("ssd_profiler");
    if (!fault_path.empty()) {
        params.faults = std::make_shared<afa::fault::FaultPlan>(
            afa::fault::FaultPlan::parseFile(fault_path));
        std::printf("injecting fault plan %s:\n%s\n",
                    fault_path.c_str(),
                    params.faults->summary().c_str());
    }

    std::printf("SSD profiler: %u devices, %.1fs profile per device\n\n",
                params.ssds, afa::sim::toSec(params.runtime));

    // Parallel profile: every SSD at once (Fig. 5 geometry).
    auto parallel = ExperimentRunner::run(params);
    std::printf("parallel profile (all %u SSDs at once):\n",
                params.ssds);
    perDeviceTable(parallel).print();

    // Flag outliers: devices whose p99.9 deviates from the batch.
    const auto &agg = parallel.aggregate;
    std::printf("\noutlier screen (p99.9 beyond 3 stddev of batch):\n");
    unsigned outliers = 0;
    for (const auto &dev : parallel.perDevice) {
        double limit = agg.meanUs[2] + 3.0 * agg.stddevUs[2] + 1.0;
        if (dev.ladderUs[2] > limit) {
            std::printf("  %s: p99.9 %.1f us (batch %.1f +/- %.1f)\n",
                        dev.device.c_str(), dev.ladderUs[2],
                        agg.meanUs[2], agg.stddevUs[2]);
            ++outliers;
        }
    }
    if (outliers == 0)
        std::printf("  none -- batch is healthy\n");

    // With --trace: where inside the stack the profile time went.
    if (!parallel.attribution.empty()) {
        std::printf("\nlatency attribution across the batch:\n%s",
                    parallel.attribution.table().toString().c_str());
        std::printf("smart stalls hit %llu commands for %.1f ms "
                    "total\n",
                    (unsigned long long)parallel.attribution
                        .stage(afa::obs::Stage::SmartStall)
                        .count,
                    parallel.attribution
                            .stage(afa::obs::Stage::SmartStall)
                            .totalTicks /
                        1e6);
        if (params.faults) {
            const auto &stall = parallel.attribution.stage(
                afa::obs::Stage::FaultStall);
            const auto &retry = parallel.attribution.stage(
                afa::obs::Stage::RetryWait);
            std::printf("fault stalls hit %llu commands for %.1f ms; "
                        "%llu retry backoffs for %.1f ms\n",
                        (unsigned long long)stall.count,
                        stall.totalTicks / 1e6,
                        (unsigned long long)retry.count,
                        retry.totalTicks / 1e6);
        }
    }
    if (!trace_out.empty() &&
        afa::obs::writePerfettoJson(
            trace_out, parallel.spans,
            parallel.telemetry.empty() ? nullptr
                                       : &parallel.telemetry))
        std::printf("perfetto trace written to %s\n",
                    trace_out.c_str());

    // Windowed timeline artifacts (--telemetry-out / --telemetry-csv).
    if (!parallel.telemetry.empty()) {
        auto write_file = [](const std::string &path,
                             const std::string &text) {
            std::FILE *f = std::fopen(path.c_str(), "wb");
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             path.c_str());
                return false;
            }
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            return true;
        };
        if (!telemetry_out.empty() &&
            write_file(telemetry_out,
                       parallel.telemetry.toJsonLines()))
            std::printf("telemetry timeline written to %s\n",
                        telemetry_out.c_str());
        if (!telemetry_csv.empty() &&
            write_file(telemetry_csv, parallel.telemetry.toCsv()))
            std::printf("telemetry CSV written to %s\n",
                        telemetry_csv.c_str());
    }

    // The serial-vs-parallel arithmetic of the paper's claim.
    std::printf("\nprofiling wall-clock comparison (per SNIA-style "
                "120 s profile):\n");
    auto profile_time = afa::sim::sec(120);
    double serial_h = simulatedHours(profile_time, params.ssds, 1);
    double par_h = simulatedHours(profile_time, params.ssds,
                                  params.ssds);
    std::printf("  one at a time : %.2f h\n", serial_h);
    std::printf("  all in parallel: %.2f h  (x%.0f faster)\n", par_h,
                serial_h / par_h);
    return 0;
}
