/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are closures scheduled at an absolute tick. Same-tick events
 * execute in scheduling order, the classic serial-DES rule. Scheduling
 * returns an EventHandle that can be used to cancel the event before
 * it fires; a handle holds the event's heap key, which is never
 * reused, so a stale handle can never cancel a recycled slot.
 */

#ifndef AFA_SIM_EVENT_QUEUE_HH
#define AFA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace afa::sim {

/**
 * Opaque reference to a scheduled event.
 *
 * A default-constructed handle is "null" and valid to cancel (a no-op).
 */
struct EventHandle
{
    /** The event's heap key (EventQueue: seq << 24 | slot). */
    std::uint64_t key = kNullKey;

    static constexpr std::uint64_t kNullKey = ~0ull;

    /** True when this handle refers to some (possibly past) event. */
    bool valid() const { return key != kNullKey; }

    bool operator==(const EventHandle &other) const = default;
};

/**
 * Min-heap of timed events with FIFO tie-breaking and O(1) handle
 * cancellation.
 *
 * The heap is 4-ary. A pop takes the root's record and leaves the
 * root vacant instead of refilling it; the next scheduleSlot() fills
 * the vacancy with its own entry, sifting it down from the root (one
 * sift instead of a pop plus a push), and the next pop first removes
 * a root that is still vacant. So the root is vacant from a pop until
 * the next schedule or pop. Removing a root refills it bottom-up: the
 * hole walks to a leaf along the earliest children, then the heap's
 * last entry sifts up from there. A vacant root holds a spent entry
 * whose slot key no longer matches, so it is never live; size() and
 * empty() count pending events, not heap slots.
 */
class EventQueue
{
  public:
    EventQueue();

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * Accepts any `void()` callable; the closure is constructed
     * directly into its queue slot (no intermediate EventFn moves).
     * @param internal engine plumbing: counted in internalExecuted()
     *        as well as executed() when it runs (see
     *        Simulator::scheduleInternal()).
     * @return handle usable with cancel().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, bool internal = false)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
            if (!fn)
                panicNullCallback();
        }
        // The slot/heap bookkeeping is shared out-of-line code; only
        // the closure construction is stamped out per callable, so the
        // callback lands in its slot without any intermediate moves.
        const std::uint64_t key = scheduleSlot(when, internal);
        slab[key & kSlotMask].fn.assign(std::forward<F>(fn));
        return EventHandle{key};
    }

    /**
     * Cancel a previously scheduled event.
     * @retval true the event was pending and is now cancelled.
     * @retval false the event already fired, was already cancelled,
     *         or the handle is null.
     */
    bool cancel(EventHandle handle);

    /** True if the given handle still refers to a pending event. */
    bool pending(EventHandle handle) const;

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return numPending; }

    /** True when no events are pending. */
    bool empty() const { return numPending == 0; }

    /**
     * Pop and run the earliest pending event.
     * @param now_out receives the event's scheduled time.
     * @retval false when the queue was empty.
     */
    bool runNext(Tick &now_out);

    /**
     * Pop the earliest pending event without executing it. The caller
     * (the Simulator) advances its clock to @p when_out and then
     * invokes @p fn_out, so callbacks observe the correct time.
     * popNextIfBefore() with no bound: it too leaves the root vacant.
     * @retval false when the queue was empty.
     */
    bool popNext(Tick &when_out, EventFn &fn_out);

    /**
     * Pop the earliest pending event only if it is due at or before
     * @p until -- the Simulator::run() hot path. Discards a vacant
     * root and stale (cancelled) heap entries on the way, and leaves
     * the popped entry's root slot vacant for the next schedule to
     * fill.
     * @retval false when the queue is empty or the earliest event is
     *         after @p until (distinguish via empty()).
     */
    bool popNextIfBefore(Tick until, Tick &when_out, EventFn &fn_out);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /** The executed() events that were scheduled as internal. They
     *  are counted as they are popped, before the caller runs them. */
    std::uint64_t internalExecuted() const { return numInternal; }

    /** Slot index width inside a heap key (16M concurrent slots). */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  private:
    struct Record
    {
        EventFn fn;
        bool internal = false; ///< engine plumbing (see schedule())
    };
    /** Sequence numbers above this would overflow the packed key. */
    static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
    /** slotKey of a slot with no live entry; growSlab() never hands
     *  out the all-ones slot, so no live key equals it. */
    static constexpr std::uint64_t kStaleKey = EventHandle::kNullKey;

    /**
     * Compact 16-byte heap entry: the key packs (seq << 24 | slot), so
     * comparing keys compares seq (FIFO order; slots never tie
     * because seq is unique). Liveness is checked against the dense
     * slotKey array instead of the fat Record, keeping skims and pops
     * inside two small arrays.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key;
    };

    /** Min-order on (when, seq); seq gives FIFO order. */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    /** Children per heap node: a 4-ary heap is half as deep as a
     *  binary one, and a node's children share 1.5 cache lines. */
    static constexpr std::size_t kArity = 4;

    std::vector<Record> slab;
    std::vector<std::uint64_t> slotKey; ///< parallel to slab
    std::vector<std::uint32_t> freeSlots;
    std::vector<HeapEntry> heap;
    /** heap[0] is a spent entry left by the last pop. */
    bool vacantRoot = false;
    std::uint64_t nextSeq;
    std::uint64_t numExecuted;
    std::uint64_t numInternal;
    std::size_t numPending;

    /**
     * Allocate a slot, mark it internal or not, and push its heap
     * entry; returns the entry's key. The caller constructs the
     * callback into the key's slot.
     */
    std::uint64_t scheduleSlot(Tick when, bool internal);

    std::uint32_t
    allocSlot()
    {
        if (!freeSlots.empty()) {
            std::uint32_t slot = freeSlots.back();
            freeSlots.pop_back();
            return slot;
        }
        return growSlab();
    }

    /** Slow path of allocSlot: extend the record slab. */
    std::uint32_t growSlab();

    [[noreturn]] static void panicNullCallback();
    [[noreturn]] static void panicSeqExhausted();

    /** True while the event keyed @p key is pending. */
    bool
    live(std::uint64_t key) const
    {
        return slotKey[key & kSlotMask] == key;
    }

    /** The earliest of the children heap[first, min(first + 4, n)). */
    std::size_t earliestChild(std::size_t first, std::size_t n) const;

    /** Put @p entry into the hole at @p hole and sift it up. */
    void siftUp(std::size_t hole, const HeapEntry &entry);

    /**
     * Remove the root entry (heap must be non-empty): move the hole
     * down to a leaf along the earliest children, then sift the last
     * entry up from there.
     */
    void dropRoot();

    /** Drop a vacant root, then cancelled entries off the heap top. */
    void skimStale();

    /** Extract a live record's callback after its entry is popped. */
    void
    takeRecord(const HeapEntry &entry, Tick &when_out, EventFn &fn_out)
    {
        std::uint32_t slot =
            static_cast<std::uint32_t>(entry.key & kSlotMask);
        Record &rec = slab[slot];
        fn_out = std::move(rec.fn);
        rec.fn = nullptr;
        slotKey[slot] = kStaleKey;
        freeSlots.push_back(slot);
        --numPending;
        ++numExecuted;
        numInternal += rec.internal;
        when_out = entry.when;
    }
};

} // namespace afa::sim

#endif // AFA_SIM_EVENT_QUEUE_HH
