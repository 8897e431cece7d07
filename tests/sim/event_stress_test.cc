/**
 * @file
 * Stress and property tests for the event queue: long interleaved
 * schedule/cancel churn checked against a reference model, directly
 * and through the Simulator's fused pops and sampler, same-tick FIFO
 * stability under slot recycling, and key safety of handles across
 * many recycle epochs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using afa::sim::EventHandle;
using afa::sim::EventQueue;
using afa::sim::Simulator;
using afa::sim::Tick;

namespace {

/**
 * Reference model: pending events keyed by (when, global scheduling
 * sequence), the queue's order. The queue must always pop the model's
 * minimum.
 */
class ModelChecker
{
  public:
    int
    schedule(EventQueue &q, Tick when, std::vector<int> &fired)
    {
        int id = nextId++;
        EventHandle handle =
            q.schedule(when, [&fired, id] { fired.push_back(id); });
        add(id, when, handle);
        return id;
    }

    /** The id the next scheduled event must be recorded under. */
    int takeId() { return nextId++; }

    /** Record event @p id, scheduled at @p when. */
    void
    add(int id, Tick when, EventHandle handle)
    {
        pendingEvents.emplace(Key{when, nextSeq++}, Entry{id, handle});
    }

    /**
     * Cancel the model entry with the given id on @p q (an EventQueue
     * or a Simulator); returns success.
     */
    template <typename Queue>
    bool
    cancel(Queue &q, int id)
    {
        for (auto it = pendingEvents.begin();
             it != pendingEvents.end(); ++it) {
            if (it->second.id != id)
                continue;
            bool ok = q.cancel(it->second.handle);
            EXPECT_TRUE(ok) << "live handle failed to cancel";
            retired.push_back(it->second.handle);
            pendingEvents.erase(it);
            return ok;
        }
        return false;
    }

    /** Pop one event from the queue and check it against the model. */
    void
    popAndCheck(EventQueue &q, std::vector<int> &fired)
    {
        Tick when = 0;
        bool popped = q.runNext(when);
        ASSERT_EQ(popped, !pendingEvents.empty());
        if (!popped)
            return;
        auto expect = pendingEvents.begin();
        EXPECT_EQ(when, std::get<0>(expect->first));
        ASSERT_FALSE(fired.empty());
        EXPECT_EQ(fired.back(), expect->second.id);
        retired.push_back(expect->second.handle);
        pendingEvents.erase(expect);
    }

    /**
     * Event @p id is running at @p now: it must be the model's
     * minimum. Retires it either way.
     * @retval false when it is not.
     */
    bool
    fire(int id, Tick now)
    {
        if (pendingEvents.empty())
            return false;
        auto expect = pendingEvents.begin();
        const bool ok = expect->second.id == id &&
            std::get<0>(expect->first) == now;
        for (auto it = pendingEvents.begin(); it != pendingEvents.end();
             ++it) {
            if (it->second.id == id) {
                retired.push_back(it->second.handle);
                pendingEvents.erase(it);
                break;
            }
        }
        return ok;
    }

    std::size_t livePending() const { return pendingEvents.size(); }

    /** The tick of the earliest pending event, or kMaxTick. */
    Tick
    earliestPending() const
    {
        return pendingEvents.empty() ? afa::sim::kMaxTick
                                     : std::get<0>(
                                           pendingEvents.begin()->first);
    }

    /** Some id of a currently pending event, or -1. */
    int
    anyPendingId(std::size_t pick) const
    {
        if (pendingEvents.empty())
            return -1;
        auto it = pendingEvents.begin();
        std::advance(it, pick % pendingEvents.size());
        return it->second.id;
    }

    /** A handle whose event already fired or was cancelled. */
    EventHandle
    anyRetiredHandle(std::size_t pick) const
    {
        if (retired.empty())
            return {};
        return retired[pick % retired.size()];
    }

  private:
    struct Entry
    {
        int id;
        EventHandle handle;
    };

    using Key = std::tuple<Tick, std::uint64_t>;

    std::map<Key, Entry> pendingEvents;
    std::vector<EventHandle> retired;
    int nextId = 0;
    std::uint64_t nextSeq = 0;
};

TEST(EventStressTest, InterleavedChurnMatchesReferenceModel)
{
    EventQueue q;
    ModelChecker model;
    std::vector<int> fired;
    std::mt19937_64 rng(0xafa5eedull);

    // Ticks collide on purpose (range << event count) so the FIFO
    // tie-break is exercised constantly, not just by the dedicated
    // same-tick test below.
    for (int iter = 0; iter < 20000; ++iter) {
        unsigned op = static_cast<unsigned>(rng() % 100);
        if (op < 50) {
            model.schedule(q, static_cast<Tick>(rng() % 512), fired);
        } else if (op < 70) {
            int id = model.anyPendingId(static_cast<std::size_t>(rng()));
            if (id >= 0)
                model.cancel(q, id);
        } else if (op < 80) {
            // Stale handles must stay dead no matter how often their
            // slot has been recycled since.
            EventHandle stale =
                model.anyRetiredHandle(static_cast<std::size_t>(rng()));
            if (stale.valid()) {
                EXPECT_FALSE(q.cancel(stale));
                EXPECT_FALSE(q.pending(stale));
            }
        } else {
            model.popAndCheck(q, fired);
        }
        ASSERT_EQ(q.size(), model.livePending());
    }
    while (!q.empty())
        model.popAndCheck(q, fired);
    EXPECT_EQ(model.livePending(), 0u);
    Tick when;
    EXPECT_FALSE(q.runNext(when));
}

/**
 * Randomized events driven through Simulator::run() slices and
 * runSteps(), whose pops leave the root vacant for the next schedule
 * to fill. Every event checks that it is the model's minimum; a
 * quarter of them cancel a pending event while their popped root is
 * still vacant; then each schedules up to three successors, at the
 * current tick or later; a quarter of them internal. A sampler checks
 * that every event of its tick has run.
 */
class FusedPopHarness
{
  public:
    explicit FusedPopHarness(std::uint64_t seed) : rng(seed) {}

    Simulator sim{1};
    ModelChecker model;
    std::uint64_t fired = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t samples = 0;
    /** Events schedule no successors, so the queue drains. */
    bool draining = false;

    void
    scheduleOne(Tick when)
    {
        const int id = model.takeId();
        EventHandle handle = rng() % 4 == 0
            ? sim.scheduleInternal(when, Event{this, id})
            : sim.scheduleAt(when, Event{this, id});
        model.add(id, when, handle);
    }

    /** The sampler: nothing at or before its tick is left. */
    void
    sample()
    {
        ++samples;
        if (model.earliestPending() <= sim.now())
            ++mismatches;
    }

    void
    cancelOne()
    {
        const int id = model.anyPendingId(static_cast<std::size_t>(rng()));
        if (id >= 0)
            model.cancel(sim, id);
    }

    /** A delay of 0 (a quarter of the time) or up to 63 ticks. */
    Tick
    delay()
    {
        return rng() % 4 == 0 ? 0 : static_cast<Tick>(rng() % 64);
    }

    std::mt19937_64 rng;

  private:
    struct Event
    {
        FusedPopHarness *harness;
        int id;

        void operator()() const { harness->run(id); }
    };

    void
    run(int id)
    {
        ++fired;
        if (!model.fire(id, sim.now()))
            ++mismatches;
        if (rng() % 4 == 0)
            cancelOne();
        unsigned successors =
            draining ? 0 : static_cast<unsigned>(rng() % 4);
        if (model.livePending() > 400)
            successors = std::min(successors, 1u);
        for (; successors > 0; --successors)
            scheduleOne(sim.now() + delay());
    }
};

TEST(EventStressTest, FusedPopsMatchReferenceModel)
{
    FusedPopHarness d(0xf05edull);
    d.sim.sampleEvery(16, [&d] { d.sample(); });
    for (int i = 0; i < 64; ++i)
        d.scheduleOne(static_cast<Tick>(d.rng() % 256));
    for (int slice = 0; slice < 1000; ++slice) {
        // Outside any event the root may still be vacant: the last
        // event runSteps() ran may have scheduled nothing.
        if (d.rng() % 2)
            d.scheduleOne(d.sim.now() + d.delay());
        if (d.rng() % 4 == 0)
            d.cancelOne();
        if (d.rng() % 3 != 0)
            d.sim.run(d.sim.now() + static_cast<Tick>(d.rng() % 48));
        else
            d.sim.runSteps(1 + d.rng() % 4);
        ASSERT_EQ(d.mismatches, 0u) << "slice " << slice;
        ASSERT_EQ(d.sim.pendingEvents(), d.model.livePending())
            << "slice " << slice;
    }
    d.draining = true;
    d.sim.run();
    EXPECT_EQ(d.mismatches, 0u);
    EXPECT_EQ(d.model.livePending(), 0u);
    EXPECT_EQ(d.sim.pendingEvents(), 0u);
    EXPECT_EQ(d.sim.executedEvents() + d.sim.plumbingEvents(), d.fired);
    EXPECT_GT(d.fired, 100000u);
    EXPECT_GT(d.samples, 100u);
}

TEST(EventStressTest, SameTickFifoSurvivesCancellationHoles)
{
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventHandle> handles;

    // 512 events on one tick; punch holes in a scattered pattern so
    // cancelled entries go stale at every heap depth.
    constexpr Tick kTick = 77;
    for (int i = 0; i < 512; ++i)
        handles.push_back(
            q.schedule(kTick, [&fired, i] { fired.push_back(i); }));
    std::vector<int> survivors;
    for (int i = 0; i < 512; ++i) {
        if (i % 3 == 0 || i % 7 == 0)
            EXPECT_TRUE(q.cancel(handles[i]));
        else
            survivors.push_back(i);
    }

    Tick when;
    while (q.runNext(when))
        EXPECT_EQ(when, kTick);
    EXPECT_EQ(fired, survivors);
}

TEST(EventStressTest, GenerationsProtectHeavilyRecycledSlots)
{
    EventQueue q;
    std::vector<int> fired;

    // With a single live event at a time, the same slot is reused for
    // every schedule; each epoch's handle keys the same slot but must
    // only ever see its own incarnation.
    constexpr std::uint64_t kSlot = EventQueue::kSlotMask;
    EventHandle previous;
    for (int epoch = 0; epoch < 1000; ++epoch) {
        EventHandle h = q.schedule(
            static_cast<Tick>(epoch),
            [&fired, epoch] { fired.push_back(epoch); });
        if (previous.valid()) {
            EXPECT_EQ(h.key & kSlot, previous.key & kSlot);
            EXPECT_NE(h.key, previous.key);
            EXPECT_FALSE(q.cancel(previous));
            EXPECT_FALSE(q.pending(previous));
        }
        EXPECT_TRUE(q.pending(h));
        if (epoch % 2 == 0) {
            Tick when;
            EXPECT_TRUE(q.runNext(when));
        } else {
            EXPECT_TRUE(q.cancel(h));
        }
        previous = h;
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired.size(), 500u);
    EXPECT_EQ(q.executed(), 500u);
}

TEST(EventStressTest, FillDrainEpochsKeepCountersConsistent)
{
    EventQueue q;
    std::uint64_t total_fired = 0;

    for (int epoch = 0; epoch < 4; ++epoch) {
        std::uint64_t fired_this_epoch = 0;
        for (int i = 0; i < 10000; ++i) {
            q.schedule(static_cast<Tick>((i * 2654435761u) % 100000),
                       [&fired_this_epoch] { ++fired_this_epoch; });
        }
        EXPECT_EQ(q.size(), 10000u);
        Tick prev = 0;
        Tick when;
        while (q.runNext(when)) {
            EXPECT_GE(when, prev);
            prev = when;
        }
        EXPECT_EQ(fired_this_epoch, 10000u);
        total_fired += fired_this_epoch;
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.executed(), total_fired);
    }
}

TEST(EventStressTest, ScheduleDuringDrainInterleavesCorrectly)
{
    EventQueue q;
    std::vector<Tick> fired_at;

    // Each event schedules a follow-up two ticks later while earlier
    // siblings are still pending; pops must interleave the cohorts in
    // global time order.
    for (Tick t = 0; t < 64; t += 4) {
        q.schedule(t, [&q, &fired_at, t] {
            fired_at.push_back(t);
            q.schedule(t + 2, [&fired_at, t] {
                fired_at.push_back(t + 2);
            });
        });
    }
    Tick when;
    while (q.runNext(when)) {
    }
    ASSERT_EQ(fired_at.size(), 32u);
    for (std::size_t i = 1; i < fired_at.size(); ++i)
        EXPECT_GT(fired_at[i], fired_at[i - 1]);
}

} // namespace
