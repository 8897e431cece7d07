/**
 * @file
 * The paper's headline claims (PAPER.md §1) as properties over seeds.
 *
 * Every check runs one figure's tuning profiles on each of kSeeds
 * seeds through RunPlan, in parallel, and reads the max point of the
 * latency ladder across drives: max(max), the worst IO latency over
 * all drives of one run, and for Fig. 12 the mean and standard
 * deviation of the drives' max. A claim about a tail is a claim about
 * a rare event, so one seed cannot carry it; each check states its
 * bound over all N seeds instead.
 *
 * Scale: 16 SSDs, 800 ms per FIO thread, SMART and irqbalance every
 * 300 ms (the reduced scale of tests/core/experiment_test.cc). Each
 * bound comes from max(max) on seeds 1-16 measured at this scale with
 * the figure benches, e.g.
 *
 *   fig06_default --ssds 16 --runtime-ms 800 --smart-period-ms 300
 *       --irqbalance-ms 300 --seed S
 *
 * and likewise fig07_chrt, fig11_exp_firmware and
 * fig12_config_comparison. The measured range
 * is quoted at each check; the bound leaves room around it, so a
 * change to the model's same-tick order passes and a change to what
 * the figure shows fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/run_plan.hh"
#include "sim/logging.hh"

using namespace afa::core;

namespace {

/** Seeds 1..kSeeds, every one a separate run. */
constexpr unsigned kSeeds = 16;

/** Worker threads for one check's runs. */
constexpr unsigned kJobs = 4;

/** The max point of the latency ladder. */
constexpr std::size_t kMaxPoint = afa::stats::NinesLadder::kPoints - 1;

/** One run's max(max) in microseconds. */
struct SeedMax
{
    std::uint64_t seed;
    double maxUs;
};

/** One run's latency ladder aggregated across drives. */
struct SeedRun
{
    std::uint64_t seed;
    afa::stats::LadderAggregate aggregate;
};

/** "median x2.5, range x1.0-x6.6" over @p factors (non-empty). */
std::string
describeFactors(std::vector<double> factors)
{
    std::sort(factors.begin(), factors.end());
    const std::size_t n = factors.size();
    const double median = n % 2
        ? factors[n / 2]
        : (factors[n / 2 - 1] + factors[n / 2]) / 2;
    return afa::sim::strfmt("median x%.1f, range x%.1f-x%.1f", median,
                            factors.front(), factors.back());
}

class PaperClaims : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /**
     * Each of @p profiles on seeds 1..kSeeds, as one plan on kJobs
     * workers: out[p][s] is profile p on seed s + 1.
     */
    static std::vector<std::vector<SeedRun>>
    runPerSeed(const std::vector<TuningProfile> &profiles)
    {
        ExperimentParams base;
        base.ssds = 16;
        base.runtime = afa::sim::msec(800);
        base.smartPeriod = afa::sim::msec(300);
        base.irqBalanceInterval = afa::sim::msec(300);
        base.job =
            afa::workload::FioJob::parse("rw=randread bs=4k iodepth=1");
        base.seed = 1;
        RunPlan plan(base);
        plan.profiles(profiles).seeds(kSeeds);
        const auto descriptors = plan.expand();
        ParallelExperimentRunner runner(kJobs);
        const auto results = runner.run(descriptors);
        // The plan is profile-major: every seed of a profile in turn.
        std::vector<std::vector<SeedRun>> out(profiles.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            out[i / kSeeds].push_back(SeedRun{descriptors[i].params.seed,
                                              results[i].aggregate});
        return out;
    }

    /** max(max) of @p profile on seeds 1..kSeeds, in seed order. */
    static std::vector<SeedMax>
    worstCasePerSeed(TuningProfile profile)
    {
        const auto runs = runPerSeed({profile});
        std::vector<SeedMax> out;
        for (const SeedRun &r : runs[0])
            out.push_back(SeedMax{r.seed, r.aggregate.maxUs[kMaxPoint]});
        return out;
    }

    /** "seed 1: 6813.5 us, seed 2: ..." for failure messages. */
    static std::string
    describe(const std::vector<SeedMax> &runs)
    {
        std::string text;
        for (const SeedMax &r : runs)
            text += afa::sim::strfmt("%sseed %llu: %.1f us",
                                     text.empty() ? "" : ", ",
                                     (unsigned long long)r.seed, r.maxUs);
        return text;
    }
};

/**
 * Fig. 6, default host. Claim: the default kernel configuration has a
 * millisecond-scale worst case (paper: ~5 ms). N = 16 seeds.
 * Bound: max(max) above 1 ms on at least 9 of 16 seeds. Source: the
 * tail is rare at this scale; fig06_default read above 1 ms on 12/16
 * seeds (553-6,998 us), and on 11/16 under an earlier same-tick order
 * of device completions, so 9 leaves two seeds of margin.
 */
TEST_F(PaperClaims, Fig06DefaultHostHasMillisecondTail)
{
    const auto runs = worstCasePerSeed(TuningProfile::Default);
    ASSERT_EQ(runs.size(), kSeeds);
    unsigned over_1ms = 0;
    for (const SeedMax &r : runs)
        over_1ms += r.maxUs > 1000.0;
    EXPECT_GE(over_1ms, 9u)
        << "Fig. 6: max(max) above 1 ms on " << over_1ms << "/" << kSeeds
        << " seeds: " << describe(runs);
}

/**
 * Fig. 7, chrt -f 99 on every FIO thread. Claim: the worst case drops
 * from milliseconds to ~600 us, the SMART stall. N = 16 seeds.
 * Bound: max(max) in [500, 600) us on every seed. Source: the lower
 * edge is the SMART stall the worst IO waits out (520 us update,
 * 545 us save, src/nvme/firmware_config.hh); the upper edge is the
 * paper's ~600 us. fig07_chrt read 550.7-564.8 us on seeds 1-16, and
 * 550.6-560.5 us under the earlier completion order.
 */
TEST_F(PaperClaims, Fig07ChrtWorstCaseIsTheSmartStall)
{
    const auto runs = worstCasePerSeed(TuningProfile::Chrt);
    ASSERT_EQ(runs.size(), kSeeds);
    unsigned outside = 0;
    for (const SeedMax &r : runs)
        outside += r.maxUs < 500.0 || r.maxUs >= 600.0;
    EXPECT_EQ(outside, 0u)
        << "Fig. 7: max(max) outside [500, 600) us on " << outside << "/"
        << kSeeds << " seeds: " << describe(runs);
}

/**
 * Fig. 11, experimental firmware (SMART update/save off) on the fully
 * tuned host. Claim: the worst case drops from ~600 us to ~90 us.
 * N = 16 seeds. Bound: max(max) under 150 us on every seed. Source:
 * fig11_exp_firmware read 32.8-99.5 us on seeds 1-16 (32.8-99.2 us
 * under the earlier completion order), and a SMART stall alone is
 * 520 us, so 150 us (the bound that
 * ExperimentTest.TuningLadderImprovesTailInOrder checks on one seed)
 * fails any run that meets a stall.
 */
TEST_F(PaperClaims, Fig11ExpFirmwareWorstCaseUnder150us)
{
    const auto runs = worstCasePerSeed(TuningProfile::ExpFirmware);
    ASSERT_EQ(runs.size(), kSeeds);
    unsigned over = 0;
    for (const SeedMax &r : runs)
        over += r.maxUs >= 150.0;
    EXPECT_EQ(over, 0u)
        << "Fig. 11: max(max) at or above 150 us on " << over << "/"
        << kSeeds << " seeds: " << describe(runs);
}

/**
 * Fig. 12, default host against the irq profile (chrt, isolcpus and
 * IRQ affinity, SMART still on). Claim: host-side tuning makes the
 * drives' worst cases alike; the paper reads the standard deviation
 * of max across drives falling from 1,644 to 4 us (~x400) and the
 * mean of max ~x8. N = 16 seeds. Bounds: the irq profile's
 * stddev(max) under 20 us on every seed, and the default host's above
 * 100 us on at least 9 of 16 seeds. Source: fig12_config_comparison
 * read the irq stddev(max) at 4.9-11.2 us on every seed (mean(max)
 * 536.9-543.6 us: every drive meets one SMART stall), and the default
 * stddev(max) above 100 us on 12 of 16 seeds (9.3-3,057 us). The
 * default->irq factors themselves spread too widely over seeds to
 * bound (x1.0-x6.6 for mean(max), x1-x530 for stddev(max)), so the
 * failure message prints them. With SmartConfig::durationSigma at
 * 0.1 instead of 0.01 the irq stddev(max) read 26.5-51.4 us on every
 * seed, so 20 us separates a tuned host from a noisy stall.
 */
TEST_F(PaperClaims, Fig12TuningEqualizesWorstCaseAcrossDrives)
{
    const auto runs =
        runPerSeed({TuningProfile::Default, TuningProfile::IrqAffinity});
    const std::vector<SeedRun> &def = runs[0];
    const std::vector<SeedRun> &irq = runs[1];
    ASSERT_EQ(def.size(), kSeeds);
    ASSERT_EQ(irq.size(), kSeeds);
    unsigned irq_over = 0, def_over = 0;
    std::vector<double> mean_factor, stddev_factor;
    std::string per_seed;
    for (unsigned s = 0; s < kSeeds; ++s) {
        const auto &d = def[s].aggregate;
        const auto &i = irq[s].aggregate;
        irq_over += i.stddevUs[kMaxPoint] >= 20.0;
        def_over += d.stddevUs[kMaxPoint] > 100.0;
        mean_factor.push_back(d.meanUs[kMaxPoint] / i.meanUs[kMaxPoint]);
        stddev_factor.push_back(d.stddevUs[kMaxPoint] /
                                i.stddevUs[kMaxPoint]);
        per_seed += afa::sim::strfmt(
            "%sseed %llu: default %.1f us, irq %.1f us",
            per_seed.empty() ? "" : ", ",
            (unsigned long long)irq[s].seed, d.stddevUs[kMaxPoint],
            i.stddevUs[kMaxPoint]);
    }
    const std::string factors = "; default->irq mean(max) " +
        describeFactors(mean_factor) + ", stddev(max) " +
        describeFactors(stddev_factor) + " (paper: ~x8, ~x400)";
    EXPECT_EQ(irq_over, 0u)
        << "Fig. 12: irq stddev(max) at or above 20 us on " << irq_over
        << "/" << kSeeds << " seeds: " << per_seed << factors;
    EXPECT_GE(def_over, 9u)
        << "Fig. 12: default stddev(max) above 100 us on " << def_over
        << "/" << kSeeds << " seeds: " << per_seed << factors;
}

} // namespace
