#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace afa::stats {

Histogram::Histogram()
    : numSamples(0), minValue(0), maxValue(0), sum(0.0), sumSquares(0.0)
{
    // Magnitude groups: values below 2^kSubBits land in group 0 with
    // exact (1-tick) resolution; each further power of two is one
    // group of 2^kSubBits sub-buckets. 64-bit values need at most
    // (64 - kSubBits) groups plus the base group.
    std::size_t groups = 64 - kSubBits + 1;
    buckets.assign((groups + 1) << kSubBits, 0);
}

std::size_t
Histogram::bucketIndex(Tick value) const
{
    const unsigned sub = kSubBits;
    if (value < (Tick(1) << sub))
        return static_cast<std::size_t>(value); // exact region
    // Magnitude = index of highest set bit. Values in
    // [2^mag, 2^(mag+1)) fall in group (mag - sub), offset past the
    // exact base region of 2^sub one-tick buckets.
    unsigned mag = 63 - std::countl_zero(value);
    unsigned group = mag - sub;
    // Linear sub-bucket within the group.
    Tick sub_idx = (value >> (mag - sub)) - (Tick(1) << sub);
    std::size_t idx = (static_cast<std::size_t>(group) << sub) +
        static_cast<std::size_t>(sub_idx) + (std::size_t(1) << sub);
    return std::min(idx, buckets.size() - 1);
}

Tick
Histogram::bucketLow(std::size_t index) const
{
    const unsigned sub = kSubBits;
    const std::size_t base = std::size_t(1) << sub;
    if (index < base)
        return static_cast<Tick>(index);
    std::size_t rel = index - base;
    unsigned group = static_cast<unsigned>(rel >> sub);
    std::size_t sub_idx = rel & (base - 1);
    unsigned mag = group + sub - 1;
    return (Tick(1) << (mag + 1)) +
        (static_cast<Tick>(sub_idx) << (mag + 1 - sub));
}

Tick
Histogram::bucketHigh(std::size_t index) const
{
    const unsigned sub = kSubBits;
    const std::size_t base = std::size_t(1) << sub;
    if (index < base)
        return static_cast<Tick>(index);
    std::size_t rel = index - base;
    unsigned group = static_cast<unsigned>(rel >> sub);
    unsigned mag = group + sub - 1;
    return bucketLow(index) + (Tick(1) << (mag + 1 - sub)) - 1;
}

void
Histogram::record(Tick value)
{
    if (numSamples == 0) {
        minValue = value;
        maxValue = value;
    } else {
        minValue = std::min(minValue, value);
        maxValue = std::max(maxValue, value);
    }
    ++numSamples;
    double v = static_cast<double>(value);
    sum += v;
    sumSquares += v * v;
    ++buckets[bucketIndex(value)];
}

double
Histogram::mean() const
{
    if (numSamples == 0)
        return 0.0;
    return sum / static_cast<double>(numSamples);
}

double
Histogram::stddev() const
{
    if (numSamples == 0)
        return 0.0;
    double n = static_cast<double>(numSamples);
    double m = sum / n;
    double var = sumSquares / n - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

Tick
Histogram::quantile(double q) const
{
    if (numSamples == 0)
        return 0;
    if (q <= 0.0)
        return minValue;
    if (q >= 1.0)
        return maxValue;
    // Rank of the target sample (1-based, ceil like HdrHistogram).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(numSamples)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        std::uint64_t c = buckets[i];
        if (c == 0)
            continue;
        if (seen + c >= rank) {
            // Interpolate within the bucket by rank position.
            Tick lo = std::max(bucketLow(i), minValue);
            Tick hi = std::min(bucketHigh(i), maxValue);
            if (hi <= lo)
                return lo;
            double frac =
                static_cast<double>(rank - seen) / static_cast<double>(c);
            return lo + static_cast<Tick>(
                frac * static_cast<double>(hi - lo));
        }
        seen += c;
    }
    return maxValue;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.numSamples == 0)
        return;
    if (numSamples == 0) {
        minValue = other.minValue;
        maxValue = other.maxValue;
    } else {
        minValue = std::min(minValue, other.minValue);
        maxValue = std::max(maxValue, other.maxValue);
    }
    numSamples += other.numSamples;
    sum += other.sum;
    sumSquares += other.sumSquares;
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
}

} // namespace afa::stats
