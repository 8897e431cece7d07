/**
 * @file
 * Attribution tests: per-stage accumulation, merge, and the report
 * table's share-of-IO arithmetic and quantile column. The per-stage
 * Log2Histogram itself is covered by log2_histogram_test.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/attribution.hh"

using namespace afa::obs;

namespace {

TEST(AttributionTest, EmptyUntilFirstAdd)
{
    Attribution attr;
    EXPECT_TRUE(attr.empty());
    attr.add(Stage::MediaRead, 10);
    EXPECT_FALSE(attr.empty());
    EXPECT_EQ(attr.stage(Stage::MediaRead).count, 1u);
    EXPECT_EQ(attr.stage(Stage::Complete).count, 0u);
}

TEST(AttributionTest, MergeCombinesPerStage)
{
    Attribution a;
    a.add(Stage::Complete, 100);
    a.add(Stage::SchedulerWait, 40);
    Attribution b;
    b.add(Stage::Complete, 300);
    b.add(Stage::IrqDeliver, 10);
    a.merge(b);
    EXPECT_EQ(a.stage(Stage::Complete).count, 2u);
    EXPECT_EQ(a.stage(Stage::Complete).totalTicks, 400u);
    EXPECT_EQ(a.stage(Stage::SchedulerWait).totalTicks, 40u);
    EXPECT_EQ(a.stage(Stage::IrqDeliver).totalTicks, 10u);
}

TEST(AttributionTest, TableSkipsEmptyStagesAndShowsShares)
{
    Attribution attr;
    attr.add(Stage::Complete, 1000);
    attr.add(Stage::SchedulerWait, 250);
    std::string text = attr.table().toString();
    EXPECT_NE(text.find("complete"), std::string::npos);
    EXPECT_NE(text.find("sched_wait"), std::string::npos);
    // 250 / 1000 of the IO total.
    EXPECT_NE(text.find("25.0"), std::string::npos);
    // Untouched stages do not produce rows.
    EXPECT_EQ(text.find("nand_read"), std::string::npos);
}

TEST(AttributionTest, TableP99NeverExceedsMax)
{
    // 100 equal 100 us spans: ~p99 is the max, not the upper edge
    // (131.1 us) of their log2 bucket.
    Attribution attr;
    for (int i = 0; i < 100; ++i)
        attr.add(Stage::MediaRead, afa::sim::usec(100));
    const std::string csv = attr.table().toCsv();
    EXPECT_NE(csv.find("mean us,~p99 us,max us,"), std::string::npos);
    EXPECT_NE(csv.find("\nmedia_read,100,10.00,100.0,100.0,100.0,"),
              std::string::npos)
        << csv;
}

} // namespace
