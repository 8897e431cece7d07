/**
 * @file
 * The CFS runqueue against the ordered set it replaced: the same
 * seeded sequence of enqueues, dequeues, picks and pulls must leave
 * both in the same (vruntime, id) order at every step, ties in
 * vruntime included.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "host/fair_queue.hh"
#include "sim/random.hh"

using afa::host::FairQueue;
using afa::host::TaskId;

namespace {

using Reference = std::set<std::pair<double, TaskId>>;

std::vector<std::pair<double, TaskId>>
contents(const FairQueue &q)
{
    std::vector<std::pair<double, TaskId>> out;
    for (const FairQueue::Entry &e : q)
        out.emplace_back(e.vruntime, e.id);
    return out;
}

TEST(FairQueueTest, MatchesAnOrderedSetUnderRandomOperations)
{
    afa::sim::Rng rng(2024);
    FairQueue q;
    Reference ref;
    unsigned pulls = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto op = rng.uniformInt(0, 9);
        if (op < 5 || ref.empty()) {
            // Enqueue. Eight vruntime values over 24 tasks make ties
            // (and exact duplicates, which stay single) common.
            const double vruntime =
                static_cast<double>(rng.uniformInt(0, 7)) * 0.25;
            const auto id = static_cast<TaskId>(rng.uniformInt(0, 23));
            q.insert(vruntime, id);
            ref.insert({vruntime, id});
        } else if (op < 7) {
            // Dequeue a queued entry chosen by rank, then the same
            // entry again (no longer queued).
            const auto rank = rng.uniformInt(0, ref.size() - 1);
            const auto entry = *std::next(ref.begin(),
                                          static_cast<long>(rank));
            ref.erase(entry);
            EXPECT_TRUE(q.erase(entry.first, entry.second));
            EXPECT_FALSE(q.erase(entry.first, entry.second));
        } else if (op < 9) {
            // Pick: the lowest entry leaves, as a dispatch does.
            const auto lowest = *ref.begin();
            ASSERT_EQ(q.front().vruntime, lowest.first);
            ASSERT_EQ(q.front().id, lowest.second);
            EXPECT_TRUE(q.erase(lowest.first, lowest.second));
            ref.erase(ref.begin());
        } else {
            // Pull: the first entry in order whose task passes an
            // affinity-like test leaves (Scheduler::tryPull()).
            const auto parity = static_cast<TaskId>(rng.uniformInt(0, 2));
            auto allowed = [parity](TaskId id) { return id % 3 == parity; };
            TaskId pulled = 0xffffffffu;
            double at = 0.0;
            for (const FairQueue::Entry &e : q) {
                if (allowed(e.id)) {
                    pulled = e.id;
                    at = e.vruntime;
                    break;
                }
            }
            auto it = ref.begin();
            while (it != ref.end() && !allowed(it->second))
                ++it;
            if (it == ref.end()) {
                EXPECT_EQ(pulled, 0xffffffffu);
            } else {
                ASSERT_EQ(pulled, it->second);
                ASSERT_EQ(at, it->first);
                EXPECT_TRUE(q.erase(at, pulled));
                ref.erase(it);
                ++pulls;
            }
        }
        ASSERT_EQ(q.size(), ref.size()) << "step " << step;
        ASSERT_EQ(q.empty(), ref.empty());
        const std::vector<std::pair<double, TaskId>> expected(
            ref.begin(), ref.end());
        ASSERT_EQ(contents(q), expected) << "step " << step;
    }
    EXPECT_GT(pulls, 100u);
}

TEST(FairQueueTest, TiesInVruntimeOrderById)
{
    FairQueue q;
    q.insert(5.0, 9);
    q.insert(5.0, 2);
    q.insert(1.0, 7);
    q.insert(5.0, 4);
    q.insert(5.0, 2); // already queued: stays single
    ASSERT_EQ(q.size(), 4u);
    const std::vector<std::pair<double, TaskId>> expected{
        {1.0, 7}, {5.0, 2}, {5.0, 4}, {5.0, 9}};
    EXPECT_EQ(contents(q), expected);
    EXPECT_FALSE(q.erase(5.0, 7)); // the task is queued at 1.0
    EXPECT_TRUE(q.erase(1.0, 7));
    EXPECT_EQ(q.front().id, 2u);
}

} // namespace
