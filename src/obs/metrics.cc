#include "obs/metrics.hh"

#include <utility>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace afa::obs {

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    // Both sides are name-ordered; classic sorted merge.
    std::vector<MetricSample> merged;
    merged.reserve(samples.size() + other.samples.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < samples.size() || b < other.samples.size()) {
        if (b >= other.samples.size() ||
            (a < samples.size() &&
             samples[a].name < other.samples[b].name)) {
            merged.push_back(samples[a++]);
            continue;
        }
        if (a >= samples.size() ||
            other.samples[b].name < samples[a].name) {
            merged.push_back(other.samples[b++]);
            continue;
        }
        // Same name: add.
        MetricSample s = samples[a++];
        s.count += other.samples[b++].count;
        merged.push_back(std::move(s));
    }
    samples = std::move(merged);
}

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSample &s : samples)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    const MetricSample *s = find(name);
    return s ? s->count : 0;
}

std::string
MetricsSnapshot::toJson(const std::string &indent) const
{
    std::string json = "{\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const MetricSample &s = samples[i];
        json += indent + "  \"" +
            afa::stats::jsonEscape(s.name) + "\": ";
        json += afa::sim::strfmt("%llu", (unsigned long long)s.count);
        json += i + 1 < samples.size() ? ",\n" : "\n";
    }
    json += indent + "}";
    return json;
}

afa::stats::Table
MetricsSnapshot::table() const
{
    afa::stats::Table table({"metric", "value"});
    for (const MetricSample &s : samples)
        table.addRow({s.name, afa::stats::Table::num(s.count)});
    return table;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

void
MetricsRegistry::addCounter(const std::string &name,
                            std::uint64_t delta)
{
    afa::sync::MutexLock lock(mutex);
    counters[name] += delta;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    afa::sync::MutexLock lock(mutex);
    snap.samples.reserve(counters.size());
    for (const auto &[name, count] : counters)
        snap.samples.push_back({name, count});
    return snap;
}

} // namespace afa::obs
