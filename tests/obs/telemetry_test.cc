/**
 * @file
 * Telemetry unit tests: windowed per-stage histograms stay exact
 * across SpanLog ring wraps and drops, ACT exceed counters are exact
 * at the millisecond thresholds, counter/gauge sources sample into
 * per-window deltas on a live Simulator, timelines merge with
 * commutative rules, and the Perfetto counter tracks round-trip the
 * windowed values.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/perfetto.hh"
#include "obs/span_log.hh"
#include "obs/telemetry.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

using namespace afa::obs;
using afa::sim::msec;
using afa::sim::Tick;

namespace {

TEST(TelemetryTest, WindowedCountsExactAcrossRingWrapAndDrops)
{
    // A tiny 8-record ring wraps hundreds of times; the windowed
    // histograms are fed per record (like the Attribution
    // accumulators), so every windowed count must survive the drops.
    SpanLog log(TraceParams{kAllCategories, 8});
    Telemetry telemetry(TelemetryParams{msec(1)});
    log.setTelemetry(&telemetry);

    std::uint64_t expected_total[3] = {0, 0, 0};
    for (std::uint64_t i = 0; i < 300; ++i) {
        const Tick end = static_cast<Tick>(i) * 10000; // 10 us apart
        const Tick duration = 500 + i;
        log.record(Stage::Complete, i, end - duration, end, 3);
        expected_total[end / msec(1)] += duration;
    }
    EXPECT_EQ(log.recorded(), 300u);
    EXPECT_GT(log.dropped(), 0u);
    EXPECT_LT(log.retained(), 300u);

    const TelemetryTimeline tl = telemetry.timeline();
    ASSERT_EQ(tl.stages.size(), 3u);
    const auto stage_id =
        static_cast<std::uint8_t>(Stage::Complete);
    for (std::uint64_t w = 0; w < 3; ++w) {
        const auto &cell = tl.stages.at(w).at(stage_id);
        EXPECT_EQ(cell.count, 100u) << "window " << w;
        EXPECT_EQ(cell.totalTicks, expected_total[w]) << "window "
                                                      << w;
    }
}

TEST(TelemetryTest, ActExceedCountersAreExactAtThresholds)
{
    // Millisecond thresholds are not log2 boundaries in ticks, so
    // exceed[] must come from exact comparisons: a duration of
    // exactly 1 ms is NOT an excess, 1 ms + 1 tick is.
    WindowStageCell cell;
    cell.add(actThresholdTicks(0));     // == 1 ms: no bucket
    cell.add(actThresholdTicks(0) + 1); // > 1 ms only
    cell.add(actThresholdTicks(2) + 1); // > 1, 2, 4 ms
    cell.add(msec(300));                // > every threshold

    EXPECT_EQ(cell.count, 4u);
    EXPECT_EQ(cell.exceed[0], 3u); // > 1 ms
    EXPECT_EQ(cell.exceed[1], 2u); // > 2 ms
    EXPECT_EQ(cell.exceed[2], 2u); // > 4 ms
    for (unsigned k = 3; k < kActThresholds; ++k)
        EXPECT_EQ(cell.exceed[k], 1u) << "threshold " << k;
}

TEST(TelemetryTest, CounterDeltasAndGaugesSampleOnTheSimulator)
{
    // Window boundaries at 1000-tick cadence; a model counter bumps
    // at known ticks; the timeline must report per-window deltas,
    // instantaneous gauge values, and a trailing partial window from
    // finish().
    afa::sim::Simulator sim(1);
    Telemetry telemetry(TelemetryParams{1000});
    std::uint64_t ops = 0;
    telemetry.addCounter("test.ops", [&ops] { return ops; });
    telemetry.addGauge("test.depth",
                       [&ops] { return static_cast<double>(ops); });

    sim.scheduleAt(100, [&ops] { ops += 1; });
    sim.scheduleAt(1100, [&ops] { ops += 2; });
    sim.scheduleAt(2100, [&ops] { ops += 4; });
    sim.scheduleAt(3500, [] {}); // advances the clock past window 3
    telemetry.start(sim);
    sim.run(3600);
    telemetry.finish();

    const TelemetryTimeline tl = telemetry.timeline();
    ASSERT_NE(tl.seriesPoint("test.ops", 0), nullptr);
    EXPECT_EQ(tl.seriesPoint("test.ops", 0)->delta, 1u);
    EXPECT_EQ(tl.seriesPoint("test.ops", 1)->delta, 2u);
    EXPECT_EQ(tl.seriesPoint("test.ops", 2)->delta, 4u);
    // The trailing partial window sampled by finish(): no new ops.
    ASSERT_NE(tl.seriesPoint("test.ops", 3), nullptr);
    EXPECT_EQ(tl.seriesPoint("test.ops", 3)->delta, 0u);

    EXPECT_DOUBLE_EQ(tl.seriesPoint("test.depth", 0)->value, 1.0);
    EXPECT_DOUBLE_EQ(tl.seriesPoint("test.depth", 1)->value, 3.0);
    EXPECT_DOUBLE_EQ(tl.seriesPoint("test.depth", 2)->value, 7.0);
    EXPECT_DOUBLE_EQ(tl.seriesPoint("test.depth", 3)->value, 7.0);

    EXPECT_EQ(tl.seriesPoint("test.ops", 99), nullptr);
    EXPECT_EQ(tl.seriesPoint("absent", 0), nullptr);

    // The self-profiling stream: window 0 executed exactly one model
    // event (the tick-100 bump); a sample is no event at all, so no
    // plumbing ran.
    ASSERT_TRUE(tl.sim.count(0));
    EXPECT_EQ(tl.sim.at(0).executed, 1u);
    EXPECT_EQ(tl.sim.at(0).plumbing, 0u);
}

TEST(TelemetryTest, SamplingEventsDoNotCountAsExecuted)
{
    // With no model events at all, a telemetry-only run must report
    // zero executed events in every window.
    afa::sim::Simulator sim(1);
    Telemetry telemetry(TelemetryParams{1000});
    telemetry.start(sim);
    sim.run(5000);
    telemetry.finish();
    EXPECT_EQ(sim.executedEvents(), 0u);
    for (const auto &[w, sw] : telemetry.timeline().sim)
        EXPECT_EQ(sw.executed, 0u) << "window " << w;
}

TEST(TelemetryTest, MergeAddsCellsAndCountersAndKeepsGaugeMax)
{
    TelemetryTimeline a;
    a.window = msec(1);
    a.stages[0][0].add(100);
    a.series["ops"].kind = MetricKind::Counter;
    a.series["ops"].points[0].delta = 5;
    a.series["depth"].kind = MetricKind::Gauge;
    a.series["depth"].points[0].value = 2.0;
    a.sim[0].executed = 10;

    TelemetryTimeline b;
    b.window = msec(1);
    b.stages[0][0].add(300);
    b.stages[1][0].add(50);
    b.series["ops"].kind = MetricKind::Counter;
    b.series["ops"].points[0].delta = 7;
    b.series["depth"].kind = MetricKind::Gauge;
    b.series["depth"].points[0].value = 9.0;
    b.sim[0].executed = 4;

    a.merge(b);
    EXPECT_EQ(a.stages[0][0].count, 2u);
    EXPECT_EQ(a.stages[0][0].totalTicks, 400u);
    EXPECT_EQ(a.stages[1][0].count, 1u);
    EXPECT_EQ(a.series["ops"].points[0].delta, 12u);
    EXPECT_DOUBLE_EQ(a.series["depth"].points[0].value, 9.0);
    EXPECT_EQ(a.sim[0].executed, 14u);

    // Merge is usable on a default-constructed accumulator too.
    TelemetryTimeline fresh;
    fresh.merge(a);
    EXPECT_EQ(fresh.window, msec(1));
    EXPECT_EQ(fresh.stages[0][0].count, 2u);
}

TEST(TelemetryTest, ExportsShareOneRowSetAcrossFormats)
{
    TelemetryTimeline tl;
    tl.window = msec(1);
    tl.stages[0][static_cast<std::uint8_t>(Stage::Complete)].add(
        50000);
    tl.series["ops"].kind = MetricKind::Counter;
    tl.series["ops"].points[0].delta = 5;
    tl.sim[0] = {7, 3};

    const std::string jsonl = tl.toJsonLines();
    EXPECT_NE(jsonl.find("\"kind\":\"header\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"window_ms\":1.000"), std::string::npos);
    EXPECT_NE(jsonl.find("\"stage\":\"complete\",\"count\":1"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"ops\",\"delta\":5"),
              std::string::npos);
    EXPECT_NE(jsonl.find("{\"kind\":\"sim\",\"window\":0,\"end_ms\":1.000,"
                         "\"executed\":7,\"plumbing\":3}\n"),
              std::string::npos);

    // The CSV carries the same rows under its fixed header; the sim
    // row fills the last two columns.
    const std::string csv = tl.toCsv();
    EXPECT_EQ(csv.find("window,end_ms,kind,name,count,"), 0u);
    EXPECT_NE(csv.find("exceed_128ms,delta,value,executed,plumbing\n"),
              std::string::npos);
    EXPECT_NE(csv.find("\n0,1.000,sim,,"), std::string::npos);
    EXPECT_EQ(csv.substr(csv.size() - 5), ",7,3\n");
    const auto lines = [](const std::string &s) {
        std::size_t n = 0;
        for (char c : s)
            n += c == '\n';
        return n;
    };
    EXPECT_EQ(lines(csv), 4u);   // header + stage + counter + sim
    EXPECT_EQ(lines(jsonl), 4u); // header row + the same three

    // toJson wraps the same rows as an array for --metrics-json.
    const std::string json = tl.toJson("  ");
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"kind\":\"stage\""), std::string::npos);
}

TEST(TelemetryTest, PerfettoCounterTracksGoldenRoundTrip)
{
    // Windowed series become "C" (counter) events stamped at the
    // window's end; the values parsed back out of the JSON must sum
    // to the deltas that went in.
    TelemetryTimeline tl;
    tl.window = msec(1);
    tl.series["io.done"].kind = MetricKind::Counter;
    tl.series["io.done"].points[0].delta = 5;
    tl.series["io.done"].points[1].delta = 7;
    tl.series["queue.depth"].kind = MetricKind::Gauge;
    tl.series["queue.depth"].points[0].value = 3.5;
    auto &cell = tl.stages[0][static_cast<std::uint8_t>(
        Stage::Complete)];
    for (int i = 0; i < 3; ++i)
        cell.add(20000);

    const std::string json = perfettoJson({}, &tl);

    // Window 0 ends at 1 ms = 1000.000 us; window 1 at 2000.000 us.
    EXPECT_NE(json.find("\"ph\": \"C\", \"pid\": 1, \"name\": "
                        "\"io.done\", \"ts\": 1000.000, "
                        "\"args\": {\"value\": 5}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"io.done\", \"ts\": 2000.000, "
                        "\"args\": {\"value\": 7}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"queue.depth\", "
                        "\"ts\": 1000.000, "
                        "\"args\": {\"value\": 3.5}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"stage.complete.ops\", "
                        "\"ts\": 1000.000, \"args\": {\"value\": 3}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"stage.complete.p99_us\""),
              std::string::npos);

    // Round-trip: every io.done counter sample parsed back, summed.
    std::uint64_t total = 0;
    const std::string needle = "\"name\": \"io.done\"";
    const std::string vkey = "\"value\": ";
    for (std::size_t p = json.find(needle); p != std::string::npos;
         p = json.find(needle, p + 1)) {
        const std::size_t v = json.find(vkey, p);
        ASSERT_NE(v, std::string::npos);
        total += std::strtoull(json.c_str() + v + vkey.size(),
                               nullptr, 10);
    }
    EXPECT_EQ(total, 12u);

    // A null timeline or an empty one adds no counter events.
    EXPECT_EQ(perfettoJson({}).find("\"ph\": \"C\""),
              std::string::npos);
    TelemetryTimeline empty;
    EXPECT_EQ(perfettoJson({}, &empty).find("\"ph\": \"C\""),
              std::string::npos);
}

} // namespace
