#include "obs/attribution.hh"

#include "sim/types.hh"

namespace afa::obs {

void
Attribution::add(Stage stage, Tick duration)
{
    stages[static_cast<std::size_t>(stage)].add(duration);
}

void
Attribution::merge(const Attribution &other)
{
    for (unsigned i = 0; i < kStageCount; ++i)
        stages[i].merge(other.stages[i]);
}

bool
Attribution::empty() const
{
    for (const Log2Histogram &s : stages)
        if (s.count != 0)
            return false;
    return true;
}

afa::stats::Table
Attribution::table() const
{
    afa::stats::Table table({"stage", "spans", "total ms", "mean us",
                             "~p99 us", "max us", "% of IO"});
    const double io_total =
        static_cast<double>(stage(Stage::Complete).totalTicks);
    for (unsigned i = 0; i < kStageCount; ++i) {
        const Log2Histogram &s = stages[i];
        if (s.count == 0)
            continue;
        double share = io_total > 0.0
            ? 100.0 * static_cast<double>(s.totalTicks) / io_total
            : 0.0;
        table.addRow(
            {stageName(static_cast<Stage>(i)),
             afa::stats::Table::num(s.count),
             afa::stats::Table::num(
                 static_cast<double>(s.totalTicks) / 1e6, 2),
             afa::stats::Table::num(s.meanTicks() / 1e3, 1),
             afa::stats::Table::num(
                 afa::sim::toUsec(s.quantileTicks(0.99)), 1),
             afa::stats::Table::num(afa::sim::toUsec(s.maxTicks), 1),
             afa::stats::Table::num(share, 1)});
    }
    return table;
}

} // namespace afa::obs
