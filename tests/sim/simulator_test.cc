/**
 * @file
 * Unit tests for the Simulator: clock semantics, run bounds, stop
 * requests, scheduling helpers, same-tick order, the internal-event
 * discount, and the sampler.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"

using afa::sim::Simulator;
using afa::sim::Tick;

namespace {

class SimulatorTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Simulator sim{42};
};

TEST_F(SimulatorTest, ClockStartsAtZero)
{
    EXPECT_EQ(sim.now(), 0u);
}

TEST_F(SimulatorTest, RunAdvancesClockToEventTimes)
{
    std::vector<Tick> seen;
    sim.scheduleAt(100, [&] { seen.push_back(sim.now()); });
    sim.scheduleAt(250, [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen, (std::vector<Tick>{100, 250}));
    EXPECT_EQ(sim.now(), 250u);
}

TEST_F(SimulatorTest, ScheduleAfterIsRelative)
{
    Tick fired_at = 0;
    sim.scheduleAt(100, [&] {
        sim.scheduleAfter(50, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST_F(SimulatorTest, RunUntilStopsClockAtBound)
{
    int fired = 0;
    sim.scheduleAt(100, [&] { ++fired; });
    sim.scheduleAt(300, [&] { ++fired; });
    sim.run(200);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 200u);
    // Remaining event still pending and runs on the next call.
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 300u);
}

TEST_F(SimulatorTest, EventExactlyAtBoundRuns)
{
    int fired = 0;
    sim.scheduleAt(200, [&] { ++fired; });
    sim.run(200);
    EXPECT_EQ(fired, 1);
}

TEST_F(SimulatorTest, SchedulingInPastPanics)
{
    sim.scheduleAt(100, [&] {
        EXPECT_THROW(sim.scheduleAt(50, [] {}), afa::sim::SimError);
    });
    sim.run();
}

TEST_F(SimulatorTest, RunStepsLimitsExecution)
{
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        sim.scheduleAt(i, [&] { ++fired; });
    EXPECT_EQ(sim.runSteps(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(sim.now(), 4u);
}

TEST_F(SimulatorTest, CancelStopsScheduledEvent)
{
    int fired = 0;
    auto h = sim.scheduleAt(10, [&] { ++fired; });
    EXPECT_TRUE(sim.pending(h));
    EXPECT_TRUE(sim.cancel(h));
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST_F(SimulatorTest, RunReturnsExecutedCount)
{
    for (int i = 1; i <= 5; ++i)
        sim.scheduleAt(i, [] {});
    EXPECT_EQ(sim.run(), 5u);
    EXPECT_EQ(sim.executedEvents(), 5u);
}

TEST_F(SimulatorTest, SeedIsExposed)
{
    EXPECT_EQ(sim.seed(), 42u);
}

TEST_F(SimulatorTest, ConstructorRejectsEventCoresOtherThanOne)
{
    EXPECT_NO_THROW(Simulator(1, 1));
    EXPECT_THROW(Simulator(1, 0), afa::sim::SimError);
    EXPECT_THROW(Simulator(1, 2), afa::sim::SimError);
    EXPECT_THROW(Simulator(1, 64), afa::sim::SimError);
}

TEST_F(SimulatorTest, InternalEventsAreNotCounted)
{
    int fired = 0;
    sim.scheduleAt(5, [&] {
        ++fired;
        sim.scheduleInternal(50, [&] { ++fired; });
        sim.scheduleAt(60, [&] { ++fired; });
    });
    const std::uint64_t executed = sim.run();
    EXPECT_EQ(fired, 3);
    // The internal post is plumbing: only the poster and the plain
    // post count as model events.
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(sim.executedEvents(), 2u);
    EXPECT_EQ(sim.plumbingEvents(), 1u);
}

TEST_F(SimulatorTest, InternalDiscountMatchesPlainRun)
{
    // Routing each model event through an internal hop (as the fabric
    // does for chained sends) leaves the model event count equal to a
    // run that schedules the same events directly.
    Simulator plain(42);
    for (Tick t : {10, 20, 30})
        plain.scheduleAt(t, [] {});
    const std::uint64_t plain_executed = plain.run();

    std::uint64_t seen_executed = 0;
    std::uint64_t seen_plumbing = 0;
    for (Tick t : {5, 15, 25}) {
        sim.scheduleInternal(t, [&, t] {
            // The plumbing counter advances before the callback, so
            // an internal event sees exactly the model events so far.
            seen_executed = sim.executedEvents();
            seen_plumbing = sim.plumbingEvents();
            sim.scheduleAt(t + 5, [] {});
        });
    }
    EXPECT_EQ(sim.run(), plain_executed);
    EXPECT_EQ(sim.executedEvents(), plain.executedEvents());
    EXPECT_EQ(sim.plumbingEvents(), 3u);
    EXPECT_EQ(plain.plumbingEvents(), 0u);
    EXPECT_EQ(seen_executed, 2u);
    EXPECT_EQ(seen_plumbing, 3u);
}

TEST_F(SimulatorTest, InternalEventKeepsThePlainEventsQueueSlot)
{
    // "Internal" is a flag on the queue slot, not a wrapper: an event
    // with a full inline-size closure runs in the same (tick, FIFO)
    // position whether it is scheduled internal or plain, and only
    // the counters tell the two apart.
    auto run = [](bool internal) {
        Simulator s(42);
        std::vector<std::uint64_t> order;
        const std::uint64_t a = 7, b = 8, c = 9;
        auto marked = [&order, a, b, c] {
            order.push_back(a * 100 + b * 10 + c);
        };
        static_assert(sizeof(marked) == afa::sim::EventFn::kInlineSize);
        s.scheduleAt(10, [&order] { order.push_back(1); });
        s.scheduleAt(10, [&order] { order.push_back(2); });
        afa::sim::EventHandle h = internal
            ? s.scheduleInternal(10, marked)
            : s.scheduleAt(10, marked);
        EXPECT_TRUE(s.pending(h));
        s.scheduleAt(10, [&order] { order.push_back(3); });
        s.scheduleAt(5, [&order] { order.push_back(4); });
        s.run();
        EXPECT_FALSE(s.pending(h));
        return std::make_pair(order, std::make_pair(s.executedEvents(),
                                                    s.plumbingEvents()));
    };
    const auto plain = run(false);
    const auto internal = run(true);
    EXPECT_EQ(internal.first, plain.first);
    EXPECT_EQ(plain.first,
              (std::vector<std::uint64_t>{4, 1, 2, 789, 3}));
    EXPECT_EQ(plain.second, std::make_pair(std::uint64_t{5},
                                           std::uint64_t{0}));
    EXPECT_EQ(internal.second, std::make_pair(std::uint64_t{4},
                                              std::uint64_t{1}));
}

TEST_F(SimulatorTest, SampleRunsAfterEveryEventOfItsTick)
{
    // Same tick: events run in post order, internal or not. The
    // sample at tick 10 runs after all of them -- after one posted
    // later, even from inside the tick -- and before tick 11's
    // events; it is not an event, so no counter moves for it.
    std::string order;
    sim.sampleEvery(10, [&] { order += '|'; });
    sim.scheduleAt(10, [&] {
        order += 'a';
        sim.scheduleAt(10, [&] { order += 'c'; });
    });
    sim.scheduleInternal(10, [&] { order += 'b'; });
    sim.scheduleAt(11, [&] { order += 'z'; });
    sim.scheduleAt(9, [&] { order += 'w'; });
    sim.run(15);
    EXPECT_EQ(order, "wabc|z");
    EXPECT_EQ(sim.executedEvents(), 4u);
    EXPECT_EQ(sim.plumbingEvents(), 1u);
}

TEST_F(SimulatorTest, UnboundedRunReturnsWithoutASampler)
{
    // With no sampler, or after stopSampling(), nothing is due at
    // kMaxTick: run() returns where the queue drains.
    int samples = 0;
    sim.scheduleAt(30, [] {});
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(sim.now(), 30u);
    sim.sampleEvery(10, [&] { ++samples; });
    sim.stopSampling();
    sim.scheduleAt(50, [] {});
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(sim.now(), 50u);
    EXPECT_EQ(samples, 0);
}

TEST_F(SimulatorTest, SamplerPersistsAcrossSlicedRuns)
{
    // A sliced run samples exactly as one run does: at every multiple
    // of the period up to each bound, bound included, with the clock
    // resting at the bound even once the queue is empty. An unbounded
    // run stops sampling where its queue drains.
    std::vector<Tick> at;
    sim.scheduleAt(5, [] {});
    sim.run(5);
    sim.sampleEvery(10, [&] { at.push_back(sim.now()); });
    sim.scheduleAt(33, [] {});
    sim.run(20);
    EXPECT_EQ(sim.now(), 20u);
    sim.run(47);
    EXPECT_EQ(sim.now(), 47u);
    sim.run(60);
    EXPECT_EQ(sim.now(), 60u);
    EXPECT_EQ(at, (std::vector<Tick>{10, 20, 30, 40, 50, 60}));
    sim.scheduleAt(75, [] {});
    sim.run();
    EXPECT_EQ(sim.now(), 75u);
    EXPECT_EQ(at.back(), 70u);
}

TEST_F(SimulatorTest, RunStepsTakesNoSamples)
{
    // Steps skip the sample ticks they pass; the next run() samples
    // from the first sample tick at or after the clock.
    std::vector<Tick> at;
    sim.sampleEvery(10, [&] { at.push_back(sim.now()); });
    for (Tick t : {5, 15, 25, 30, 30})
        sim.scheduleAt(t, [] {});
    EXPECT_EQ(sim.runSteps(4), 4u);
    EXPECT_EQ(sim.now(), 30u);
    EXPECT_TRUE(at.empty());
    sim.run(40);
    EXPECT_EQ(at, (std::vector<Tick>{30, 40}));
}

TEST_F(SimulatorTest, SamplerRefusesZeroPeriodAndASecondSampler)
{
    EXPECT_THROW(sim.sampleEvery(0, [] {}), afa::sim::SimError);
    sim.sampleEvery(10, [] {});
    EXPECT_THROW(sim.sampleEvery(20, [] {}), afa::sim::SimError);
    sim.stopSampling();
    EXPECT_NO_THROW(sim.sampleEvery(20, [] {}));
}

TEST_F(SimulatorTest, RecurringEventChainTerminatesAtBound)
{
    // A self-rescheduling event (like a timer tick) must stop at the
    // run bound without draining the queue.
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        sim.scheduleAfter(10, tick);
    };
    sim.scheduleAt(0, tick);
    sim.run(100);
    EXPECT_EQ(ticks, 11); // t = 0, 10, ..., 100
    EXPECT_EQ(sim.now(), 100u);
}

} // namespace
