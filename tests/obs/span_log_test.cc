/**
 * @file
 * SpanLog unit tests: category gating, ring growth and wrap-around
 * drop accounting, snapshot ordering, the exactness of the
 * attribution accumulators under ring drops, and a log without a
 * ring.
 */

#include <gtest/gtest.h>

#include "obs/span_log.hh"
#include "obs/telemetry.hh"

using namespace afa::obs;

namespace {

TraceParams
params(std::uint32_t mask, std::size_t capacity)
{
    TraceParams p;
    p.mask = mask;
    p.capacity = capacity;
    return p;
}

TEST(SpanLogTest, DisabledMaskRecordsNothing)
{
    SpanLog log(params(0, 16));
    EXPECT_FALSE(log.wants(Category::Workload));
    log.record(Stage::Complete, 1, 0, 100, cpuTrack(0));
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_EQ(log.retained(), 0u);
    EXPECT_TRUE(log.attribution().empty());
}

TEST(SpanLogTest, CategoryGatingIsPerStage)
{
    SpanLog log(params(categoryBit(Category::Irq), 16));
    EXPECT_TRUE(log.wants(Category::Irq));
    EXPECT_FALSE(log.wants(Category::Sched));
    log.record(Stage::IrqDeliver, 1, 0, 10, cpuTrack(0));
    log.record(Stage::SchedulerWait, 1, 0, 10, cpuTrack(0));
    ASSERT_EQ(log.recorded(), 1u);
    EXPECT_EQ(log.snapshot()[0].stageId(), Stage::IrqDeliver);
}

TEST(SpanLogTest, RecordsCarryAllFields)
{
    SpanLog log(params(kAllCategories, 16));
    log.record(Stage::NandRead, 42, 100, 250, ssdTrack(3),
               kSpanFlagRemote, 7);
    auto spans = log.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].io, 42u);
    EXPECT_EQ(spans[0].begin, 100u);
    EXPECT_EQ(spans[0].end, 250u);
    EXPECT_EQ(spans[0].duration(), 150u);
    EXPECT_EQ(spans[0].track, ssdTrack(3));
    EXPECT_EQ(spans[0].flags, kSpanFlagRemote);
    EXPECT_EQ(spans[0].arg, 7u);
}

TEST(SpanLogTest, RingWrapDropsOldestAndCounts)
{
    SpanLog log(params(kAllCategories, 4));
    for (std::uint64_t i = 0; i < 10; ++i)
        log.record(Stage::Complete, i, i * 10, i * 10 + 5,
                   cpuTrack(0));
    EXPECT_EQ(log.recorded(), 10u);
    EXPECT_EQ(log.dropped(), 6u);
    EXPECT_EQ(log.retained(), 4u);
    EXPECT_EQ(log.capacity(), 4u);

    // Snapshot returns the newest 4 records, oldest first.
    auto spans = log.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].io, 6 + i);
}

TEST(SpanLogTest, AttributionStaysExactAcrossDrops)
{
    SpanLog log(params(kAllCategories, 2));
    Tick total = 0;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        log.record(Stage::MediaRead, i, 0, i, ssdTrack(0));
        total += i;
    }
    EXPECT_EQ(log.dropped(), 98u);
    const Attribution attr = log.attribution();
    const Log2Histogram &media = attr.stage(Stage::MediaRead);
    EXPECT_EQ(media.count, 100u);
    EXPECT_EQ(media.totalTicks, total);
    EXPECT_EQ(media.maxTicks, 100u);
}

TEST(SpanLogTest, GrowthPhaseKeepsEverythingUpToCapacity)
{
    // More than the initial 1024-slot allocation but under capacity:
    // nothing may drop while the ring is still growing.
    SpanLog log(params(kAllCategories, 4096));
    for (std::uint64_t i = 0; i < 3000; ++i)
        log.record(Stage::Complete, i, 0, 1, cpuTrack(0));
    EXPECT_EQ(log.recorded(), 3000u);
    EXPECT_EQ(log.dropped(), 0u);
    EXPECT_EQ(log.retained(), 3000u);
    auto spans = log.snapshot();
    EXPECT_EQ(spans.front().io, 0u);
    EXPECT_EQ(spans.back().io, 2999u);
}

TEST(SpanLogTest, CapacityZeroFeedsAttributionAndTelemetryWithoutARing)
{
    // Capacity 0 is the log of a run whose spans nobody keeps: it
    // counts and accumulates every span like a log with a ring, but
    // retains, drops and snapshots nothing.
    SpanLog none(params(kAllCategories, 0));
    SpanLog ring(params(kAllCategories, 16));
    Telemetry none_telemetry(TelemetryParams{1000});
    Telemetry ring_telemetry(TelemetryParams{1000});
    none.setTelemetry(&none_telemetry);
    ring.setTelemetry(&ring_telemetry);
    for (std::uint64_t i = 1; i <= 100; ++i)
        for (SpanLog *log : {&none, &ring})
            log->record(i % 2 ? Stage::MediaRead : Stage::Complete, i,
                        i * 50, i * 50 + i, ssdTrack(0));

    EXPECT_EQ(none.capacity(), 0u);
    EXPECT_EQ(none.recorded(), 100u);
    EXPECT_EQ(none.retained(), 0u);
    EXPECT_EQ(none.dropped(), 0u);
    EXPECT_TRUE(none.snapshot().empty());
    EXPECT_GT(ring.dropped(), 0u);
    for (unsigned s = 0; s < kStageCount; ++s) {
        const Log2Histogram &a = none.attribution().stages[s];
        const Log2Histogram &b = ring.attribution().stages[s];
        EXPECT_EQ(a.count, b.count) << "stage " << s;
        EXPECT_EQ(a.totalTicks, b.totalTicks) << "stage " << s;
        EXPECT_EQ(a.maxTicks, b.maxTicks) << "stage " << s;
        EXPECT_EQ(a.buckets, b.buckets) << "stage " << s;
    }
    EXPECT_EQ(none.attribution().stage(Stage::MediaRead).count, 50u);
    const std::string timeline =
        none_telemetry.timeline().toJsonLines();
    EXPECT_FALSE(timeline.empty());
    EXPECT_EQ(timeline, ring_telemetry.timeline().toJsonLines());
}

TEST(SpanLogTest, StageCategoryMapCoversEveryStage)
{
    // Every stage must be recordable under the all-categories mask.
    SpanLog log(params(kAllCategories, 64));
    for (unsigned i = 0; i < kStageCount; ++i)
        log.record(static_cast<Stage>(i), 1, 0, 1, cpuTrack(0));
    EXPECT_EQ(log.recorded(), kStageCount);
}

} // namespace
