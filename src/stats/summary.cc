#include "stats/summary.hh"

#include <cmath>

#include "sim/types.hh"

namespace afa::stats {

const std::array<double, NinesLadder::kPoints> &
NinesLadder::quantiles()
{
    static const std::array<double, kPoints> q = {
        -1.0,       // average (not a quantile)
        0.99,       // 2-nines
        0.999,      // 3-nines
        0.9999,     // 4-nines
        0.99999,    // 5-nines
        0.999999,   // 6-nines
        1.0,        // 100th / max
    };
    return q;
}

const std::array<const char *, NinesLadder::kPoints> &
NinesLadder::labels()
{
    static const std::array<const char *, kPoints> l = {
        "avg", "99%", "99.9%", "99.99%", "99.999%", "99.9999%", "max",
    };
    return l;
}

LatencySummary
LatencySummary::fromHistogram(const std::string &device,
                              const Histogram &hist)
{
    LatencySummary s;
    s.device = device;
    s.samples = hist.count();
    s.meanUs = hist.mean() / afa::sim::kUsec;
    s.stddevUs = hist.stddev() / afa::sim::kUsec;
    s.minUs = afa::sim::toUsec(hist.min());
    s.maxUs = afa::sim::toUsec(hist.max());
    const auto &qs = NinesLadder::quantiles();
    for (std::size_t i = 0; i < NinesLadder::kPoints; ++i) {
        if (qs[i] < 0.0)
            s.ladderUs[i] = s.meanUs;
        else
            s.ladderUs[i] = afa::sim::toUsec(hist.quantile(qs[i]));
    }
    return s;
}

LadderAggregate
LadderAggregate::across(const std::vector<LatencySummary> &summaries)
{
    LadderAggregate agg;
    agg.devices = summaries.size();
    if (summaries.empty())
        return agg;
    const std::size_t n = summaries.size();
    for (std::size_t p = 0; p < NinesLadder::kPoints; ++p) {
        double sum = 0.0, sumsq = 0.0;
        double lo = summaries[0].ladderUs[p];
        double hi = lo;
        for (const auto &s : summaries) {
            double v = s.ladderUs[p];
            sum += v;
            sumsq += v * v;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        double mean = sum / static_cast<double>(n);
        double var = sumsq / static_cast<double>(n) - mean * mean;
        agg.meanUs[p] = mean;
        agg.stddevUs[p] = var > 0.0 ? std::sqrt(var) : 0.0;
        agg.minUs[p] = lo;
        agg.maxUs[p] = hi;
    }
    return agg;
}

} // namespace afa::stats
