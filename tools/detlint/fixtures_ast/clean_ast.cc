// AST fixture: the sanctioned idioms next to each AST-only rule, plus
// the shared detlint:allow escape hatch on an AST-only diagnostic.
// The file must lint clean.

#include <cstdint>
#include <map>

namespace afa::sim {
using Tick = std::uint64_t;
Tick now();
} // namespace afa::sim

namespace afa::obs {

enum class Stage { SmartStall };

struct SpanLog
{
    void record(Stage stage, std::uint64_t io, afa::sim::Tick begin,
                afa::sim::Tick end, int track);
    bool wants(int category) const;
};

} // namespace afa::obs

namespace afa::fixture {

// tick-units: explicit casts state the unit crossing on purpose, and
// the escape hatch works for AST-only rules too.
double
latencyUsec(afa::sim::Tick begin, afa::sim::Tick end)
{
    double span = static_cast<double>(end - begin) / 1000.0;
    afa::sim::Tick padded = end;
    // Justification: exercising the shared allow grammar.
    padded += 1.5; // detlint:allow(tick-units)
    return span + static_cast<double>(padded);
}

// tick-units: the horizon helpers (readAt, sampleHiccup) are
// sanctioned unit-boundary functions -- converting a floating latency
// draw into a busy-horizon claim is their job.
afa::sim::Tick
readAt(afa::sim::Tick start_floor, double draw, double sigma)
{
    // Tick + floating would trip tick-units anywhere else.
    return static_cast<afa::sim::Tick>(start_floor +
                                       draw * (1.0 + sigma));
}

// unordered-accumulate: ordered containers accumulate freely.
double
orderedSum(const std::map<std::uint64_t, double> &latencies)
{
    double total = 0.0;
    for (const auto &entry : latencies)
        total += entry.second;
    return total;
}

// span-pairing: the tracing-enabled guard (a condition mentioning the
// span log) marks the untraced path as intentional, and recording on
// every branch covers all paths.
void
guardedRecord(afa::obs::SpanLog *spanLog, std::uint64_t io)
{
    const afa::sim::Tick begin = afa::sim::now();
    if (spanLog != nullptr && spanLog->wants(0))
        spanLog->record(afa::obs::Stage::SmartStall, io, begin,
                        afa::sim::now(), 0);
}

void
bothBranchesRecord(afa::obs::SpanLog &log, std::uint64_t io, bool hit)
{
    const afa::sim::Tick begin = afa::sim::now();
    if (hit)
        log.record(afa::obs::Stage::SmartStall, io, begin,
                   afa::sim::now(), 0);
    else
        log.record(afa::obs::Stage::SmartStall, io, begin,
                   afa::sim::now(), 1);
}

void
unconditionalRecord(afa::obs::SpanLog &log, std::uint64_t io)
{
    const afa::sim::Tick begin = afa::sim::now();
    log.record(afa::obs::Stage::SmartStall, io, begin,
               afa::sim::now(), 0);
}

} // namespace afa::fixture
