/**
 * @file
 * MetricsRegistry / MetricsSnapshot unit tests: counters, ordered
 * snapshots, merge semantics (counters add), and the JSON emission
 * with label escaping. Snapshots hold counters only.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"

using namespace afa::obs;

namespace {

TEST(MetricsRegistryTest, CountersAccumulate)
{
    MetricsRegistry reg;
    reg.addCounter("fabric.packets", 3);
    reg.addCounter("fabric.packets", 4);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("fabric.packets"), 7u);
    EXPECT_EQ(snap.counter("absent"), 0u);
}

TEST(MetricsRegistryTest, SnapshotIsNameOrdered)
{
    MetricsRegistry reg;
    reg.addCounter("z.last", 1);
    reg.addCounter("a.first", 1);
    reg.addCounter("m.middle", 1);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    EXPECT_EQ(snap.samples[0].name, "a.first");
    EXPECT_EQ(snap.samples[1].name, "m.middle");
    EXPECT_EQ(snap.samples[2].name, "z.last");
}

TEST(MetricsSnapshotTest, MergeAddsCountersKeepsMaxGauge)
{
    MetricsRegistry a;
    a.addCounter("c", 10);
    MetricsRegistry b;
    b.addCounter("c", 5);
    b.addCounter("only_b", 1);

    MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counter("c"), 15u);
    EXPECT_EQ(merged.counter("only_b"), 1u);
}

TEST(MetricsSnapshotTest, MergeIsCommutativeOnDisjointSets)
{
    MetricsRegistry a;
    a.addCounter("a.n", 1);
    MetricsRegistry b;
    b.addCounter("b.n", 2);
    MetricsSnapshot ab = a.snapshot();
    ab.merge(b.snapshot());
    MetricsSnapshot ba = b.snapshot();
    ba.merge(a.snapshot());
    ASSERT_EQ(ab.samples.size(), 2u);
    ASSERT_EQ(ba.samples.size(), 2u);
    EXPECT_EQ(ab.samples[0].name, ba.samples[0].name);
    EXPECT_EQ(ab.samples[1].name, ba.samples[1].name);
}

TEST(MetricsSnapshotTest, ToJsonEscapesLabels)
{
    MetricsRegistry reg;
    reg.addCounter("weird\"name\\with\nstuff", 1);
    std::string json = reg.snapshot().toJson();
    // The label reaches the document with every special escaped, so
    // no raw quote/backslash/newline can break the JSON string.
    EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"),
              std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonIsWellFormedForAllKinds)
{
    MetricsRegistry reg;
    reg.addCounter("c", 1);
    std::string json = reg.snapshot().toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"c\": 1"), std::string::npos);
}

} // namespace
