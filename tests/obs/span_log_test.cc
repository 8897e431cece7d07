/**
 * @file
 * SpanLog unit tests: category gating, ring growth and wrap-around
 * drop accounting, snapshot ordering, and the exactness of the
 * attribution accumulators under ring drops.
 */

#include <gtest/gtest.h>

#include "obs/span_log.hh"

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

TEST(SpanLogTest, StageCategoryMapCoversEveryStage)
{
    // Every stage must be recordable under the all-categories mask.
    SpanLog log(params(kAllCategories, 64));
    for (unsigned i = 0; i < kStageCount; ++i)
        log.record(static_cast<Stage>(i), 1, 0, 1, cpuTrack(0));
    EXPECT_EQ(log.recorded(), kStageCount);
}

} // namespace
