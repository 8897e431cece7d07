#include "stats/run_metrics.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace afa::stats {

double
RunMetrics::eventsPerSec() const
{
    if (wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(events) / wallSeconds;
}

double
RunMetrics::eventsPerIo() const
{
    if (ios == 0)
        return 0.0;
    return static_cast<double>(events) / static_cast<double>(ios);
}

void
RunMetricsLog::reset()
{
    afa::sync::MutexLock lock(mutex);
    runs.clear();
}

void
RunMetricsLog::record(RunMetrics metrics)
{
    afa::sync::MutexLock lock(mutex);
    runs.push_back(std::move(metrics));
}

std::size_t
RunMetricsLog::finished() const
{
    afa::sync::MutexLock lock(mutex);
    return runs.size();
}

std::vector<RunMetrics>
RunMetricsLog::snapshot() const
{
    std::vector<RunMetrics> copy;
    {
        afa::sync::MutexLock lock(mutex);
        copy = runs;
    }
    std::sort(copy.begin(), copy.end(),
              [](const RunMetrics &a, const RunMetrics &b) {
                  return a.index < b.index;
              });
    return copy;
}

Table
RunMetricsLog::table(double suite_wall_seconds) const
{
    Table table({"run", "label", "worker", "events", "wall s",
                 "events/s", "events/io"});
    std::uint64_t total_events = 0;
    std::uint64_t total_ios = 0;
    double total_wall = 0.0;
    for (const RunMetrics &m : snapshot()) {
        total_events += m.events;
        total_ios += m.ios;
        total_wall += m.wallSeconds;
        table.addRow({Table::num(std::uint64_t(m.index)), m.label,
                      Table::num(std::uint64_t(m.worker)),
                      Table::num(m.events),
                      Table::num(m.wallSeconds, 2),
                      Table::num(m.eventsPerSec(), 0),
                      Table::num(m.eventsPerIo(), 2)});
    }
    double suite_rate = suite_wall_seconds > 0.0
        ? static_cast<double>(total_events) / suite_wall_seconds
        : 0.0;
    double suite_epio = total_ios > 0
        ? static_cast<double>(total_events)
            / static_cast<double>(total_ios)
        : 0.0;
    table.addRow({"total", "", "", Table::num(total_events),
                  Table::num(suite_wall_seconds, 2),
                  Table::num(suite_rate, 0),
                  Table::num(suite_epio, 2)});
    return table;
}

std::string
RunMetricsLog::toJson(double suite_wall_seconds, unsigned jobs) const
{
    auto all = snapshot();
    std::uint64_t total_events = 0;
    std::uint64_t total_ios = 0;
    for (const RunMetrics &m : all) {
        total_events += m.events;
        total_ios += m.ios;
    }
    double suite_rate = suite_wall_seconds > 0.0
        ? static_cast<double>(total_events) / suite_wall_seconds
        : 0.0;
    double suite_epio = total_ios > 0
        ? static_cast<double>(total_events)
            / static_cast<double>(total_ios)
        : 0.0;

    std::string json = "{\n";
    json += afa::sim::strfmt("  \"jobs\": %u,\n", jobs);
    json += afa::sim::strfmt("  \"runs\": %zu,\n", all.size());
    json += afa::sim::strfmt("  \"total_events\": %llu,\n",
                             (unsigned long long)total_events);
    json += afa::sim::strfmt("  \"total_ios\": %llu,\n",
                             (unsigned long long)total_ios);
    json += afa::sim::strfmt("  \"suite_wall_seconds\": %.3f,\n",
                             suite_wall_seconds);
    json += afa::sim::strfmt("  \"suite_events_per_sec\": %.0f,\n",
                             suite_rate);
    json += afa::sim::strfmt("  \"suite_events_per_io\": %.2f,\n",
                             suite_epio);
    json += "  \"per_run\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const RunMetrics &m = all[i];
        json += afa::sim::strfmt(
            "    {\"index\": %zu, \"label\": \"%s\", \"worker\": %u, "
            "\"events\": %llu, \"ios\": %llu, "
            "\"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "
            "\"events_per_io\": %.2f}%s\n",
            m.index, jsonEscape(m.label).c_str(), m.worker,
            (unsigned long long)m.events, (unsigned long long)m.ios,
            m.wallSeconds, m.eventsPerSec(), m.eventsPerIo(),
            i + 1 < all.size() ? "," : "");
    }
    json += "  ]\n}\n";
    return json;
}

} // namespace afa::stats
