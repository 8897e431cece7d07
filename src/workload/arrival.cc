#include "workload/arrival.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace afa::workload {

ArrivalProcess::ArrivalProcess(const ArrivalParams &params)
    : p(params), onLeft(0.0)
{
    if (!(p.ratePerSec > 0.0) || !std::isfinite(p.ratePerSec))
        afa::sim::fatal("arrival: ratePerSec must be positive and "
                        "finite (got %g)", p.ratePerSec);
    if (!std::isfinite(p.burstFactor))
        afa::sim::fatal("arrival: burstFactor must be finite (got %g)",
                        p.burstFactor);
    bursty = p.burstFactor > 1.0;
    const double mean_gap = 1e9 / p.ratePerSec;
    if (bursty) {
        onGapMean = mean_gap / p.burstFactor;
        onMeanNs = static_cast<double>(p.onMean);
        if (onMeanNs <= 0.0)
            afa::sim::fatal("arrival: bursty onMean must be positive");
        // Duty cycle 1/burstFactor keeps the long-run mean rate at
        // ratePerSec: off phases average (burstFactor - 1) on-phases.
        offMeanNs = onMeanNs * (p.burstFactor - 1.0);
        if (!(onGapMean > 0.0) || !std::isfinite(offMeanNs))
            afa::sim::fatal("arrival: burstFactor %g is out of range "
                            "at %g ops/s", p.burstFactor, p.ratePerSec);
    } else {
        onGapMean = mean_gap;
        onMeanNs = 0.0;
        offMeanNs = 0.0;
    }
    // An exponential draw is at most 53 ln 2 < 37 times its mean
    // (Rng::uniform() is never below 2^-53), so these bounds keep
    // every gap and off phase castable to Tick.
    const double max_mean = static_cast<double>(afa::sim::kMaxTick) / 37.0;
    if (mean_gap > max_mean)
        afa::sim::fatal("arrival: ratePerSec %g is too low: its mean "
                        "gap of %g ns could overflow the clock",
                        p.ratePerSec, mean_gap);
    if (offMeanNs > max_mean)
        afa::sim::fatal("arrival: burstFactor %g gives off phases "
                        "(mean %g ns) that could overflow the clock",
                        p.burstFactor, offMeanNs);
}

Tick
ArrivalProcess::nextGap(afa::sim::Rng &rng)
{
    double gap;
    if (!bursty) {
        gap = rng.exponential(onGapMean);
    } else {
        // Exact MMPP on/off: a candidate gap drawn at the on-phase
        // rate lands in the current on phase or the phase expires
        // first. Exponential gaps are memoryless, so discarding the
        // candidate that crossed the phase boundary and redrawing in
        // the next on phase is distribution-exact, not an
        // approximation.
        gap = 0.0;
        for (;;) {
            if (onLeft <= 0.0)
                onLeft = rng.exponential(onMeanNs);
            const double candidate = rng.exponential(onGapMean);
            if (candidate <= onLeft) {
                onLeft -= candidate;
                gap += candidate;
                break;
            }
            gap += onLeft + rng.exponential(offMeanNs);
            onLeft = 0.0;
        }
    }
    return std::max<Tick>(1, static_cast<Tick>(gap));
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : count(std::max<std::uint64_t>(1, n)), skew(theta)
{
    if (!(skew >= 0.0 && skew < 1.0))
        afa::sim::fatal("zipf: theta must be in [0, 1) (got %g)",
                        skew);
    if (skew == 0.0) {
        zetan = alpha = eta = 0.0;
        return;
    }
    zetan = 0.0;
    for (std::uint64_t i = 1; i <= count; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), skew);
    const double zeta2 = 1.0 + std::pow(0.5, skew);
    alpha = 1.0 / (1.0 - skew);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(count),
                          1.0 - skew)) /
          (1.0 - zeta2 / zetan);
}

std::uint64_t
ZipfGenerator::next(afa::sim::Rng &rng) const
{
    if (skew == 0.0)
        return rng.uniformInt(0, count - 1);
    const double u = rng.uniform();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, skew))
        return 1;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<double>(count) *
        std::pow(eta * u - eta + 1.0, alpha));
    return std::min(rank, count - 1);
}

} // namespace afa::workload
