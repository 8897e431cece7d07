/**
 * @file
 * FaultPlan spec parsing: directives, defaults, validation errors,
 * deterministic event ordering, and the summary rendering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "fault/fault_plan.hh"
#include "sim/logging.hh"

using namespace afa::fault;
using afa::sim::msec;

namespace {

class FaultPlanTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(FaultPlanTest, DefaultsWithoutDirectives)
{
    auto plan = FaultPlan::parseText("");
    EXPECT_EQ(plan.nvmeTimeout, msec(10));
    EXPECT_EQ(plan.maxRetries, 3u);
    EXPECT_EQ(plan.retryBackoff, msec(1));
    EXPECT_TRUE(plan.events.empty());
}

TEST_F(FaultPlanTest, ParsesEveryDirective)
{
    auto plan = FaultPlan::parseText(
        "# driver policy\n"
        "timeout_ms 5\n"
        "max_retries 2\n"
        "retry_backoff_ms 0.5\n"
        "\n"
        "limp       ssd=3 at_ms=20 dur_ms=40 factor=8\n"
        "dropout    ssd=5 at_ms=10 dur_ms=15\n"
        "link_error ssd=2 at_ms=5  dur_ms=30 rate=0.2\n"
        "ctrl_stall ssd=0 at_ms=12 dur_ms=2  # trailing comment\n");
    EXPECT_EQ(plan.nvmeTimeout, msec(5));
    EXPECT_EQ(plan.maxRetries, 2u);
    EXPECT_EQ(plan.retryBackoff, msec(0.5));
    ASSERT_EQ(plan.events.size(), 4u);
    // Events come back sorted by onset, not by spec order.
    EXPECT_EQ(plan.events[0].kind, FaultKind::LinkError);
    EXPECT_EQ(plan.events[0].ssd, 2u);
    EXPECT_EQ(plan.events[0].at, msec(5));
    EXPECT_EQ(plan.events[0].duration, msec(30));
    EXPECT_DOUBLE_EQ(plan.events[0].rate, 0.2);
    EXPECT_EQ(plan.events[1].kind, FaultKind::Dropout);
    EXPECT_EQ(plan.events[2].kind, FaultKind::CtrlStall);
    EXPECT_EQ(plan.events[3].kind, FaultKind::Limp);
    EXPECT_DOUBLE_EQ(plan.events[3].factor, 8.0);
}

TEST_F(FaultPlanTest, RejectsBadSpecs)
{
    // Unknown directive.
    EXPECT_THROW(FaultPlan::parseText("limpp ssd=0 at_ms=0 dur_ms=1"),
                 afa::sim::SimError);
    // Missing required field.
    EXPECT_THROW(FaultPlan::parseText("limp ssd=0 at_ms=0 factor=2"),
                 afa::sim::SimError);
    // Limp factor below 1 would speed the device up.
    EXPECT_THROW(
        FaultPlan::parseText("limp ssd=0 at_ms=0 dur_ms=1 factor=0.5"),
        afa::sim::SimError);
    // Certain-corruption links would replay forever.
    EXPECT_THROW(
        FaultPlan::parseText(
            "link_error ssd=0 at_ms=0 dur_ms=1 rate=1.0"),
        afa::sim::SimError);
    // Negative and non-numeric values.
    EXPECT_THROW(FaultPlan::parseText("timeout_ms -4"),
                 afa::sim::SimError);
    EXPECT_THROW(FaultPlan::parseText("timeout_ms ten"),
                 afa::sim::SimError);
    EXPECT_THROW(FaultPlan::parseText("timeout_ms 1 2"),
                 afa::sim::SimError);
    // Non-finite numbers, limp factors past 1e6, clock overflow, and
    // counts that are not whole or do not fit in unsigned.
    for (const char *spec : {
             "dropout ssd=0 at_ms=nan dur_ms=1",
             "dropout ssd=0 at_ms=inf dur_ms=1",
             "limp ssd=0 at_ms=0 dur_ms=1 factor=inf",
             "limp ssd=0 at_ms=0 dur_ms=1 factor=1e7",
             "limp ssd=0 at_ms=0 dur_ms=1 factor=1e30",
             "link_error ssd=0 at_ms=0 dur_ms=1 rate=nan",
             "dropout ssd=0 at_ms=0 dur_ms=1e30",
             "dropout ssd=0 at_ms=1e13 dur_ms=1e13",
             "dropout ssd=99999999999999999999 at_ms=0 dur_ms=1",
             "dropout ssd=1.5 at_ms=0 dur_ms=1",
             "max_retries 4294967296",
             "max_retries 2.5",
             "timeout_ms nan",
             "retry_backoff_ms 1e300",
         })
        EXPECT_THROW(FaultPlan::parseText(spec), afa::sim::SimError)
            << spec;
    // The largest values that still fit are accepted.
    const auto edge = FaultPlan::parseText(
        "max_retries 4294967295\ndropout ssd=4294967295 at_ms=1 "
        "dur_ms=1e12\nlimp ssd=0 at_ms=2 dur_ms=1 factor=1e6");
    EXPECT_EQ(edge.maxRetries, 4294967295u);
    EXPECT_EQ(edge.events[0].ssd, 4294967295u);
    EXPECT_EQ(edge.events[1].factor, 1e6);
}

TEST_F(FaultPlanTest, FileRoundTrip)
{
    const char *path = "fault_plan_test.plan";
    {
        std::ofstream out(path);
        out << "dropout ssd=7 at_ms=3 dur_ms=9\n";
    }
    auto plan = FaultPlan::parseFile(path);
    std::remove(path);
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::Dropout);
    EXPECT_EQ(plan.events[0].ssd, 7u);
    EXPECT_THROW(FaultPlan::parseFile("no_such_plan_file"),
                 afa::sim::SimError);
}

TEST_F(FaultPlanTest, SummaryNamesEveryEvent)
{
    auto plan = FaultPlan::parseText(
        "limp ssd=3 at_ms=20 dur_ms=40 factor=8\n"
        "link_error ssd=2 at_ms=5 dur_ms=30 rate=0.25\n");
    std::string text = plan.summary();
    EXPECT_NE(text.find("2 event(s)"), std::string::npos);
    EXPECT_NE(text.find("limp"), std::string::npos);
    EXPECT_NE(text.find("link_error"), std::string::npos);
    EXPECT_NE(text.find("factor=8.0"), std::string::npos);
    EXPECT_NE(text.find("rate=0.250"), std::string::npos);
    EXPECT_EQ(faultKindName(FaultKind::CtrlStall),
              std::string("ctrl_stall"));
}

} // namespace
