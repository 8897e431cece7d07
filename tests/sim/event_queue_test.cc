/**
 * @file
 * Unit tests for the discrete-event queue: ordering, FIFO stability,
 * cancellation, handle safety, and stale-entry handling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

using afa::sim::EventHandle;
using afa::sim::EventQueue;
using afa::sim::kMaxTick;
using afa::sim::Tick;

namespace {

class EventQueueTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    EventQueue q;
    std::vector<int> order;

    Tick
    drainOne()
    {
        Tick when = 0;
        EXPECT_TRUE(q.runNext(when));
        return when;
    }
};

TEST_F(EventQueueTest, EmptyQueueReportsEmpty)
{
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    Tick when = 0;
    EXPECT_FALSE(q.runNext(when));
}

TEST_F(EventQueueTest, EventsRunInTimeOrder)
{
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(drainOne(), 10u);
    EXPECT_EQ(drainOne(), 20u);
    EXPECT_EQ(drainOne(), 30u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, SameTickEventsRunFifo)
{
    for (int i = 0; i < 16; ++i)
        q.schedule(100, [this, i] { order.push_back(i); });
    Tick when;
    while (q.runNext(when))
        EXPECT_EQ(when, 100u);
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(EventQueueTest, PopNextIfBeforeStopsAtEarliestPending)
{
    q.schedule(50, [] {});
    q.schedule(40, [] {});
    Tick when = 0;
    afa::sim::EventFn fn;
    EXPECT_FALSE(q.popNextIfBefore(39, when, fn));
    EXPECT_TRUE(q.popNextIfBefore(40, when, fn));
    EXPECT_EQ(when, 40u);
}

TEST_F(EventQueueTest, CancelPreventsExecution)
{
    auto h = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(drainOne(), 20u);
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST_F(EventQueueTest, CancelTwiceFails)
{
    auto h = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST_F(EventQueueTest, CancelAfterExecutionFails)
{
    auto h = q.schedule(10, [] {});
    drainOne();
    EXPECT_FALSE(q.cancel(h));
}

TEST_F(EventQueueTest, NullHandleCancelIsNoop)
{
    EventHandle null_handle;
    EXPECT_FALSE(null_handle.valid());
    EXPECT_FALSE(q.cancel(null_handle));
}

TEST_F(EventQueueTest, PendingTracksLifecycle)
{
    auto h = q.schedule(10, [] {});
    EXPECT_TRUE(q.pending(h));
    drainOne();
    EXPECT_FALSE(q.pending(h));
}

TEST_F(EventQueueTest, StaleHandleCannotCancelRecycledSlot)
{
    auto h1 = q.schedule(10, [&] { order.push_back(1); });
    EXPECT_TRUE(q.cancel(h1));
    // The slot is recycled for a new event; the old handle must not
    // be able to touch it.
    auto h2 = q.schedule(20, [&] { order.push_back(2); });
    EXPECT_FALSE(q.cancel(h1));
    EXPECT_TRUE(q.pending(h2));
    EXPECT_EQ(drainOne(), 20u);
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST_F(EventQueueTest, PopNextIfBeforeSkipsCancelledTop)
{
    auto h = q.schedule(10, [] {});
    q.schedule(50, [] {});
    q.cancel(h);
    Tick when = 0;
    afa::sim::EventFn fn;
    EXPECT_FALSE(q.popNextIfBefore(49, when, fn));
    EXPECT_TRUE(q.popNextIfBefore(kMaxTick, when, fn));
    EXPECT_EQ(when, 50u);
    EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, ScheduleFromWithinEvent)
{
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(15, [&] { order.push_back(2); });
    });
    Tick when;
    while (q.runNext(when)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(EventQueueTest, ExecutedCounterAdvances)
{
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    Tick when;
    while (q.runNext(when)) {
    }
    EXPECT_EQ(q.executed(), 2u);
}

TEST_F(EventQueueTest, NullCallbackPanics)
{
    EXPECT_THROW(q.schedule(1, afa::sim::EventFn{}), afa::sim::SimError);
}

TEST_F(EventQueueTest, ManyEventsStressOrdering)
{
    // Interleave schedules and cancellations; verify global ordering.
    std::vector<EventHandle> handles;
    for (int i = 0; i < 1000; ++i)
        handles.push_back(
            q.schedule((i * 37) % 500, [this, i] { order.push_back(i); }));
    for (int i = 0; i < 1000; i += 3)
        q.cancel(handles[i]);
    Tick prev = 0;
    Tick when;
    std::size_t executed = 0;
    while (q.runNext(when)) {
        EXPECT_GE(when, prev);
        prev = when;
        ++executed;
    }
    EXPECT_EQ(executed, order.size());
    EXPECT_EQ(executed, 1000u - 334u);
}

} // namespace
