#include "obs/log2_histogram.hh"

#include <algorithm>

namespace afa::obs {

void
Log2Histogram::merge(const Log2Histogram &other)
{
    count += other.count;
    totalTicks += other.totalTicks;
    maxTicks = std::max(maxTicks, other.maxTicks);
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
Log2Histogram::meanTicks() const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(totalTicks) /
        static_cast<double>(count);
}

Tick
Log2Histogram::quantileTicks(double q) const
{
    if (count == 0)
        return 0;
    if (q >= 1.0)
        return maxTicks;
    auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    target = std::min(target, count - 1);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (seen + buckets[i] > target) {
            if (i == 0)
                return 0;
            // Bucket i spans [2^(i-1), 2^i - 1]; spread its ranks
            // evenly from the low edge to min(max, high edge).
            const Tick lo = Tick(1) << (i - 1);
            const Tick hi = i == kBuckets - 1
                ? maxTicks
                : std::min(maxTicks, (Tick(1) << i) - 1);
            const std::uint64_t pos = target - seen;
            const std::uint64_t den =
                buckets[i] > 1 ? buckets[i] - 1 : 1;
            const auto offset =
                static_cast<Tick>(static_cast<double>(hi - lo) *
                                  static_cast<double>(pos) /
                                  static_cast<double>(den));
            // Double rounding can only overshoot past 2^53 ticks.
            return lo + std::min(hi - lo, offset);
        }
        seen += buckets[i];
    }
    return maxTicks;
}

} // namespace afa::obs
