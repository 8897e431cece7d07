#include "obs/telemetry.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "stats/json.hh"

namespace afa::obs {

// ---------------------------------------------------------------------
// WindowStageCell
// ---------------------------------------------------------------------

void
WindowStageCell::add(Tick duration)
{
    Log2Histogram::add(duration);
    // Millisecond thresholds are not log2 boundaries in ticks, so the
    // ACT counters are exact dedicated comparisons, not bucket sums.
    for (unsigned k = 0; k < kActThresholds; ++k)
        if (duration > actThresholdTicks(k))
            ++exceed[k];
        else
            break;
}

void
WindowStageCell::merge(const WindowStageCell &other)
{
    Log2Histogram::merge(other);
    for (unsigned k = 0; k < kActThresholds; ++k)
        exceed[k] += other.exceed[k];
}

// ---------------------------------------------------------------------
// TelemetryTimeline
// ---------------------------------------------------------------------

bool
TelemetryTimeline::empty() const
{
    return stages.empty() && series.empty() && sim.empty();
}

const TelemetryTimeline::Point *
TelemetryTimeline::seriesPoint(const std::string &name,
                               std::uint64_t w) const
{
    const auto s = series.find(name);
    if (s == series.end())
        return nullptr;
    const auto p = s->second.points.find(w);
    return p == s->second.points.end() ? nullptr : &p->second;
}

void
TelemetryTimeline::merge(const TelemetryTimeline &other)
{
    if (window == 0)
        window = other.window;
    for (const auto &[w, row] : other.stages)
        for (const auto &[stage, cell] : row)
            stages[w][stage].merge(cell);
    for (const auto &[name, s] : other.series) {
        Series &mine = series[name];
        mine.kind = s.kind;
        for (const auto &[w, p] : s.points) {
            Point &q = mine.points[w];
            if (s.kind == MetricKind::Gauge)
                q.value = std::max(q.value, p.value);
            else
                q.delta += p.delta;
        }
    }
    for (const auto &[w, sw] : other.sim) {
        SimWindow &mine = sim[w];
        mine.executed += sw.executed;
        mine.plumbing += sw.plumbing;
    }
}

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

double
usec(Tick t)
{
    return static_cast<double>(t) / 1e3;
}

double
msecOf(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

/** Every window index any part of the timeline touches, ascending. */
std::set<std::uint64_t>
windowSet(const TelemetryTimeline &tl)
{
    std::set<std::uint64_t> out;
    for (const auto &[w, row] : tl.stages)
        out.insert(w);
    for (const auto &[name, s] : tl.series)
        for (const auto &[w, p] : s.points)
            out.insert(w);
    for (const auto &[w, sw] : tl.sim)
        out.insert(w);
    return out;
}

/** Emit one window's rows in the canonical order: stage rows by
 *  stage id, source rows by name, then the sim row. */
void
jsonRowsForWindow(const TelemetryTimeline &tl, std::uint64_t w,
                  std::vector<std::string> &rows)
{
    const double end_ms =
        msecOf(static_cast<Tick>(w + 1) * tl.window);
    auto sit = tl.stages.find(w);
    if (sit != tl.stages.end()) {
        for (const auto &[stage, cell] : sit->second) {
            std::string row = fmt(
                "{\"kind\":\"stage\",\"window\":%" PRIu64
                ",\"end_ms\":%.3f,\"stage\":\"%s\",\"count\":%" PRIu64
                ",\"mean_us\":%.3f,\"p50_us\":%.3f,\"p99_us\":%.3f,"
                "\"p999_us\":%.3f,\"max_us\":%.3f,\"exceed\":[",
                w, end_ms,
                stageName(static_cast<Stage>(stage)), cell.count,
                cell.meanTicks() / 1e3,
                usec(cell.quantileTicks(0.50)),
                usec(cell.quantileTicks(0.99)),
                usec(cell.quantileTicks(0.999)),
                usec(cell.maxTicks));
            for (unsigned k = 0; k < kActThresholds; ++k)
                row += fmt("%s%" PRIu64, k ? "," : "",
                           cell.exceed[k]);
            row += "]}";
            rows.push_back(std::move(row));
        }
    }
    for (const auto &[name, s] : tl.series) {
        auto pit = s.points.find(w);
        if (pit == s.points.end())
            continue;
        if (s.kind == MetricKind::Gauge)
            rows.push_back(fmt(
                "{\"kind\":\"gauge\",\"window\":%" PRIu64
                ",\"end_ms\":%.3f,\"name\":\"%s\",\"value\":%g}",
                w, end_ms, afa::stats::jsonEscape(name).c_str(),
                pit->second.value));
        else
            rows.push_back(fmt(
                "{\"kind\":\"counter\",\"window\":%" PRIu64
                ",\"end_ms\":%.3f,\"name\":\"%s\",\"delta\":%" PRIu64
                "}",
                w, end_ms, afa::stats::jsonEscape(name).c_str(),
                pit->second.delta));
    }
    auto mit = tl.sim.find(w);
    if (mit != tl.sim.end())
        rows.push_back(fmt(
            "{\"kind\":\"sim\",\"window\":%" PRIu64
            ",\"end_ms\":%.3f,\"executed\":%" PRIu64
            ",\"plumbing\":%" PRIu64 "}",
            w, end_ms, mit->second.executed, mit->second.plumbing));
}

std::vector<std::string>
jsonRows(const TelemetryTimeline &tl)
{
    std::vector<std::string> rows;
    std::string header = fmt(
        "{\"kind\":\"header\",\"window_ms\":%.3f,"
        "\"act_thresholds_ms\":[",
        msecOf(tl.window));
    for (unsigned k = 0; k < kActThresholds; ++k)
        header += fmt("%s%" PRIu64, k ? "," : "",
                      static_cast<std::uint64_t>(1) << k);
    header += "]}";
    rows.push_back(std::move(header));
    for (std::uint64_t w : windowSet(tl))
        jsonRowsForWindow(tl, w, rows);
    return rows;
}

} // namespace

std::string
TelemetryTimeline::toJsonLines() const
{
    std::string out;
    for (const std::string &row : jsonRows(*this)) {
        out += row;
        out += '\n';
    }
    return out;
}

std::string
TelemetryTimeline::toJson(const std::string &indent) const
{
    std::string out = "[";
    bool first = true;
    for (const std::string &row : jsonRows(*this)) {
        out += first ? "\n" : ",\n";
        out += indent;
        out += row;
        first = false;
    }
    out += "\n";
    out += "]";
    return out;
}

std::string
TelemetryTimeline::toCsv() const
{
    // Fixed tidy schema; every row fills the cells its kind owns and
    // leaves the rest empty.
    enum Col : unsigned {
        kWindow = 0, kEndMs, kKind, kName, kCount, kMean, kP50, kP99,
        kP999, kMax, kExceed0, // ... kExceed0 + kActThresholds - 1
        kDelta = kExceed0 + kActThresholds, kValue, kExecuted,
        kPlumbing, kCols,
    };
    std::vector<std::string> cells(kCols);
    auto flush = [&cells](std::string &out) {
        for (unsigned c = 0; c < kCols; ++c) {
            if (c)
                out += ',';
            out += cells[c];
        }
        out += '\n';
        for (std::string &cell : cells)
            cell.clear();
    };

    std::string out =
        "window,end_ms,kind,name,count,mean_us,p50_us,p99_us,"
        "p999_us,max_us";
    for (unsigned k = 0; k < kActThresholds; ++k)
        out += fmt(",exceed_%" PRIu64 "ms",
                   static_cast<std::uint64_t>(1) << k);
    out += ",delta,value,executed,plumbing\n";

    for (std::uint64_t w : windowSet(*this)) {
        const std::string win = fmt("%" PRIu64, w);
        const std::string end_ms =
            fmt("%.3f", msecOf(static_cast<Tick>(w + 1) * window));
        auto sit = stages.find(w);
        if (sit != stages.end())
            for (const auto &[stage, cell] : sit->second) {
                cells[kWindow] = win;
                cells[kEndMs] = end_ms;
                cells[kKind] = "stage";
                cells[kName] =
                    stageName(static_cast<Stage>(stage));
                cells[kCount] = fmt("%" PRIu64, cell.count);
                cells[kMean] = fmt("%.3f", cell.meanTicks() / 1e3);
                cells[kP50] =
                    fmt("%.3f", usec(cell.quantileTicks(0.50)));
                cells[kP99] =
                    fmt("%.3f", usec(cell.quantileTicks(0.99)));
                cells[kP999] =
                    fmt("%.3f", usec(cell.quantileTicks(0.999)));
                cells[kMax] = fmt("%.3f", usec(cell.maxTicks));
                for (unsigned k = 0; k < kActThresholds; ++k)
                    cells[kExceed0 + k] =
                        fmt("%" PRIu64, cell.exceed[k]);
                flush(out);
            }
        for (const auto &[name, s] : series) {
            auto pit = s.points.find(w);
            if (pit == s.points.end())
                continue;
            cells[kWindow] = win;
            cells[kEndMs] = end_ms;
            cells[kName] = name;
            if (s.kind == MetricKind::Gauge) {
                cells[kKind] = "gauge";
                cells[kValue] = fmt("%g", pit->second.value);
            } else {
                cells[kKind] = "counter";
                cells[kDelta] = fmt("%" PRIu64, pit->second.delta);
            }
            flush(out);
        }
        auto mit = sim.find(w);
        if (mit != sim.end()) {
            cells[kWindow] = win;
            cells[kEndMs] = end_ms;
            cells[kKind] = "sim";
            cells[kExecuted] = fmt("%" PRIu64, mit->second.executed);
            cells[kPlumbing] = fmt("%" PRIu64, mit->second.plumbing);
            flush(out);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

Telemetry::Telemetry(const TelemetryParams &params)
    : windowTicks(params.window)
{
}

void
Telemetry::recordSpan(Stage stage, Tick end, Tick duration)
{
    if (windowTicks == 0)
        return;
    const std::uint64_t w = end / windowTicks;
    if (w != cachedWindow || cachedRow == nullptr) {
        cachedRow = &stageWindows[w];
        cachedWindow = w;
    }
    (*cachedRow)[static_cast<std::uint8_t>(stage)].add(duration);
}

void
Telemetry::addCounter(const std::string &name,
                      std::function<std::uint64_t()> fn)
{
    Source src;
    src.name = name;
    src.kind = MetricKind::Counter;
    src.counterFn = std::move(fn);
    sources.push_back(std::move(src));
}

void
Telemetry::addGauge(const std::string &name,
                    std::function<double()> fn)
{
    Source src;
    src.name = name;
    src.kind = MetricKind::Gauge;
    src.gaugeFn = std::move(fn);
    sources.push_back(std::move(src));
}

void
Telemetry::start(afa::sim::Simulator &sim)
{
    if (windowTicks == 0)
        return;
    simPtr = &sim;
    // run() calls the sampler between ticks, at each window's end
    // after its last event; it posts no event.
    sim.sampleEvery(windowTicks, [this] {
        sampleWindow(simPtr->now() / windowTicks - 1);
    });
}

void
Telemetry::sampleWindow(std::uint64_t window_idx)
{
    SampleRow row;
    row.counters.reserve(sources.size());
    row.gauges.reserve(sources.size());
    for (const Source &src : sources) {
        if (src.kind == MetricKind::Gauge) {
            row.counters.push_back(0);
            row.gauges.push_back(src.gaugeFn ? src.gaugeFn() : 0.0);
        } else {
            row.counters.push_back(
                src.counterFn ? src.counterFn() : 0);
            row.gauges.push_back(0.0);
        }
    }
    row.executed = simPtr->executedEvents();
    row.plumbing = simPtr->plumbingEvents();
    samples[window_idx] = std::move(row);
}

void
Telemetry::finish()
{
    if (simPtr == nullptr)
        return;
    simPtr->stopSampling();
    // Cover the trailing partial window (or refresh the boundary
    // window when the run ended exactly on one).
    sampleWindow(simPtr->now() / windowTicks);
    simPtr = nullptr;
}

TelemetryTimeline
Telemetry::timeline() const
{
    TelemetryTimeline tl;
    tl.window = windowTicks;
    if (windowTicks == 0)
        return tl;
    tl.stages = stageWindows;

    // Cumulative samples become per-window deltas (gauges stay
    // instantaneous); the map iterates windows in ascending order so
    // each row subtracts its predecessor.
    std::vector<std::uint64_t> prevCounters(sources.size(), 0);
    std::uint64_t prevExecuted = 0;
    std::uint64_t prevPlumbing = 0;
    for (const auto &[w, row] : samples) {
        for (std::size_t i = 0; i < sources.size(); ++i) {
            TelemetryTimeline::Series &s =
                tl.series[sources[i].name];
            s.kind = sources[i].kind;
            TelemetryTimeline::Point p;
            if (sources[i].kind == MetricKind::Gauge)
                p.value = row.gauges[i];
            else
                p.delta = row.counters[i] - prevCounters[i];
            s.points[w] = p;
        }
        tl.sim[w] = TelemetryTimeline::SimWindow{
            row.executed - prevExecuted, row.plumbing - prevPlumbing};
        prevCounters = row.counters;
        prevExecuted = row.executed;
        prevPlumbing = row.plumbing;
    }
    return tl;
}

} // namespace afa::obs
