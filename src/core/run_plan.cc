#include "core/run_plan.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "sim/logging.hh"

namespace afa::core {

RunPlan &
RunPlan::profiles(std::vector<TuningProfile> values)
{
    profileAxis = std::move(values);
    return *this;
}

RunPlan &
RunPlan::variants(std::vector<GeometryVariant> values)
{
    variantAxis = std::move(values);
    return *this;
}

RunPlan &
RunPlan::seeds(unsigned count)
{
    if (count == 0)
        count = 1;
    seedReplicas = count;
    return *this;
}

RunPlan &
RunPlan::add(std::string label, ExperimentParams params)
{
    RunDescriptor desc;
    desc.label = std::move(label);
    desc.params = std::move(params);
    extraRuns.push_back(std::move(desc));
    return *this;
}

std::vector<RunDescriptor>
RunPlan::expand() const
{
    // Empty axes contribute the base value with no label segment.
    const bool sweep_profiles = !profileAxis.empty();
    const bool sweep_variants = !variantAxis.empty();
    std::vector<TuningProfile> profs = sweep_profiles
        ? profileAxis
        : std::vector<TuningProfile>{baseParams.profile};
    std::vector<GeometryVariant> vars = sweep_variants
        ? variantAxis
        : std::vector<GeometryVariant>{baseParams.variant};

    std::vector<RunDescriptor> plan;
    // A plan made only of explicit runs has no implicit base run.
    if (!sweep_profiles && !sweep_variants && !extraRuns.empty()) {
        profs.clear();
        vars.clear();
    }
    for (TuningProfile profile : profs) {
        for (GeometryVariant variant : vars) {
            for (unsigned rep = 0; rep < seedReplicas; ++rep) {
                RunDescriptor desc;
                desc.params = baseParams;
                desc.params.profile = profile;
                desc.params.variant = variant;
                desc.params.seed = baseParams.seed + rep;

                std::string label;
                if (sweep_profiles)
                    label = tuningProfileName(profile);
                if (sweep_variants) {
                    if (!label.empty())
                        label += '/';
                    label += geometryVariantName(variant);
                }
                if (seedReplicas > 1) {
                    if (!label.empty())
                        label += '/';
                    label += afa::sim::strfmt(
                        "seed%llu",
                        (unsigned long long)desc.params.seed);
                }
                if (label.empty())
                    label = "run";
                desc.label = std::move(label);
                plan.push_back(std::move(desc));
            }
        }
    }
    // Explicit runs replicate across seeds too, each keeping its own
    // base seed.
    for (const RunDescriptor &extra : extraRuns) {
        for (unsigned rep = 0; rep < seedReplicas; ++rep) {
            RunDescriptor desc = extra;
            desc.params.seed = extra.params.seed + rep;
            if (seedReplicas > 1)
                desc.label += afa::sim::strfmt(
                    "/seed%llu",
                    (unsigned long long)desc.params.seed);
            plan.push_back(std::move(desc));
        }
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        plan[i].index = i;
    return plan;
}

ParallelExperimentRunner::ParallelExperimentRunner(unsigned jobs)
    : numJobs(jobs)
{
    if (numJobs == 0) {
        numJobs = std::thread::hardware_concurrency();
        if (numJobs == 0)
            numJobs = 1;
    }
}

std::vector<ExperimentResult>
ParallelExperimentRunner::run(const std::vector<RunDescriptor> &plan)
{
    using Clock = std::chrono::steady_clock;

    metricsLog.reset();
    std::vector<ExperimentResult> results(plan.size());
    if (plan.empty()) {
        suiteSeconds = 0.0;
        return results;
    }

    // Wall-clock reads below are runner telemetry only (wallSeconds /
    // events-per-second in the run-metrics block); they never reach
    // simulation state, which advances on Tick alone.
    const auto suite_start = Clock::now(); // detlint:allow(wall-clock)
    std::atomic<std::size_t> cursor{0};
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(numJobs, plan.size()));

    auto work = [&](unsigned worker_id) {
        for (;;) {
            std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= plan.size())
                return;
            const auto run_start = Clock::now(); // detlint:allow(wall-clock)
            results[i] = ExperimentRunner::run(plan[i].params);
            const std::chrono::duration<double> elapsed =
                Clock::now() - run_start; // detlint:allow(wall-clock)

            afa::stats::RunMetrics metrics;
            metrics.index = plan[i].index;
            metrics.label = plan[i].label;
            metrics.events = results[i].simulatedEvents;
            metrics.ios = results[i].totalIos;
            metrics.wallSeconds = elapsed.count();
            metrics.worker = worker_id;
            metricsLog.record(metrics);
            if (progress) {
                afa::sync::MutexLock lock(progressMutex);
                std::fprintf(
                    stderr,
                    "[%zu/%zu] %s: %llu events in %.2f s "
                    "(%.0f events/s, worker %u)\n",
                    metricsLog.finished(), plan.size(),
                    plan[i].label.c_str(),
                    (unsigned long long)metrics.events,
                    metrics.wallSeconds, metrics.eventsPerSec(),
                    worker_id);
            }
        }
    };

    if (workers <= 1) {
        // Run inline: identical code path, no thread overhead.
        work(0);
    } else {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(work, w);
        // jthread joins on destruction.
        pool.clear();
    }

    const std::chrono::duration<double> suite_elapsed =
        Clock::now() - suite_start; // detlint:allow(wall-clock)
    suiteSeconds = suite_elapsed.count();
    return results;
}

ExperimentResult
ParallelExperimentRunner::mergeReplicas(
    const std::vector<const ExperimentResult *> &group)
{
    if (group.empty())
        return ExperimentResult();
    ExperimentResult merged = *group.front();
    for (std::size_t i = 1; i < group.size(); ++i) {
        const ExperimentResult &r = *group[i];
        merged.perDevice.insert(merged.perDevice.end(),
                                r.perDevice.begin(),
                                r.perDevice.end());
        merged.totalIos += r.totalIos;
        merged.simulatedEvents += r.simulatedEvents;
        merged.runs += r.runs;
        merged.attribution.merge(r.attribution);
        merged.spanDrops += r.spanDrops;
        merged.systemMetrics.merge(r.systemMetrics);
        merged.telemetry.merge(r.telemetry);
        merged.openLoop.merge(r.openLoop);
        // Raw spans stay those of the first replica: one run's
        // timeline is what Perfetto export wants.
    }
    if (group.size() > 1) {
        double gbps = 0.0;
        for (const ExperimentResult *r : group)
            gbps += r->aggregateGBps;
        merged.aggregateGBps =
            gbps / static_cast<double>(group.size());
    }
    merged.aggregate =
        afa::stats::LadderAggregate::across(merged.perDevice);
    return merged;
}

} // namespace afa::core
