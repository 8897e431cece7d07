/**
 * @file
 * The CFS runqueue of one CPU: runnable fair tasks ordered by
 * (vruntime, task id), the order a std::set of those pairs keeps.
 *
 * A runqueue holds a handful of tasks, and every wakeup inserts one,
 * so the entries live in one sorted vector: an insert or erase moves
 * a few entries, and once the vector has grown to the CPU's busiest
 * moment no enqueue allocates.
 */

#ifndef AFA_HOST_FAIR_QUEUE_HH
#define AFA_HOST_FAIR_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace afa::host {

/** Identifies a task. */
using TaskId = std::uint32_t;

/** Fair runqueue: unique (vruntime, id) entries, ascending. */
class FairQueue
{
  public:
    struct Entry
    {
        double vruntime;
        TaskId id;

        /** Lexicographic, as std::pair orders (vruntime, id). */
        friend bool
        operator<(const Entry &a, const Entry &b)
        {
            if (a.vruntime < b.vruntime)
                return true;
            if (b.vruntime < a.vruntime)
                return false;
            return a.id < b.id;
        }
    };

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /** The entry with the lowest (vruntime, id); queue non-empty. */
    const Entry &
    front() const
    {
        assert(!entries.empty() && "front() of an empty runqueue");
        return entries.front();
    }

    /** Insert (vruntime, id); an entry already present stays single. */
    void
    insert(double vruntime, TaskId id)
    {
        const Entry e{vruntime, id};
        auto it = std::lower_bound(entries.begin(), entries.end(), e);
        if (it == entries.end() || e < *it)
            entries.insert(it, e);
    }

    /** Remove (vruntime, id); false when it is not queued. */
    bool
    erase(double vruntime, TaskId id)
    {
        const Entry e{vruntime, id};
        auto it = std::lower_bound(entries.begin(), entries.end(), e);
        if (it == entries.end() || e < *it)
            return false;
        entries.erase(it);
        return true;
    }

    /** Ascending iteration. Any insert or erase invalidates it. */
    std::vector<Entry>::const_iterator
    begin() const
    {
        return entries.begin();
    }
    std::vector<Entry>::const_iterator
    end() const
    {
        return entries.end();
    }

  private:
    std::vector<Entry> entries;
};

} // namespace afa::host

#endif // AFA_HOST_FAIR_QUEUE_HH
