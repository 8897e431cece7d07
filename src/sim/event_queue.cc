#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace afa::sim {

EventQueue::EventQueue()
    : nextSeq(0), numExecuted(0), numInternal(0), numPending(0)
{
    slab.reserve(1024);
    slotKey.reserve(1024);
    heap.reserve(1024);
}

std::uint32_t
EventQueue::growSlab()
{
    // The all-ones slot is never handed out, so no live key equals
    // kStaleKey (the null handle's key).
    if (slab.size() >= kSlotMask)
        panic("EventQueue: more than %llu concurrent events",
              (unsigned long long)kSlotMask);
    slab.emplace_back();
    slotKey.push_back(kStaleKey);
    return static_cast<std::uint32_t>(slab.size() - 1);
}

std::uint64_t
EventQueue::scheduleSlot(Tick when, bool internal)
{
    if (nextSeq >= kMaxSeq)
        panicSeqExhausted();
    std::uint32_t slot = allocSlot();
    slab[slot].internal = internal;
    std::uint64_t key = (nextSeq++ << kSlotBits) | slot;
    slotKey[slot] = key;
    const HeapEntry entry{when, key};
    if (vacantRoot) {
        // Fused pop + push: the entry takes the popped root's place
        // and sifts down from it. A newly scheduled event is usually
        // due soon, so it settles near the root and the walk stops
        // early.
        vacantRoot = false;
        const std::size_t n = heap.size();
        std::size_t hole = 0;
        for (std::size_t first = 1; first < n;
             first = kArity * hole + 1) {
            const std::size_t child = earliestChild(first, n);
            if (!earlier(heap[child], entry))
                break;
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = entry;
    } else {
        heap.push_back(entry);
        siftUp(heap.size() - 1, entry);
    }
    ++numPending;
    return key;
}

void
EventQueue::panicNullCallback()
{
    panic("EventQueue::schedule: null callback");
}

void
EventQueue::panicSeqExhausted()
{
    panic("EventQueue: event sequence space exhausted");
}

void
EventQueue::siftUp(std::size_t hole, const HeapEntry &entry)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!earlier(entry, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

std::size_t
EventQueue::earliestChild(std::size_t first, std::size_t n) const
{
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c)
        if (earlier(heap[c], heap[best]))
            best = c;
    return best;
}

void
EventQueue::dropRoot()
{
    // Bottom-up: the last entry is usually later than most of the
    // heap, so the hole walks to a leaf along the earliest children
    // without testing the entry on the way, and the entry's sift up
    // from there is short.
    const HeapEntry last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    for (std::size_t first = 1; first < n; first = kArity * hole + 1) {
        const std::size_t child = earliestChild(first, n);
        heap[hole] = heap[child];
        hole = child;
    }
    siftUp(hole, last);
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (!pending(handle))
        return false;
    // Lazy deletion: invalidate the slot key so the heap entry is
    // stale, and free the slot at once. A reuse gives the slot a new
    // key, so the stale entry stays dead until a skim drops it.
    const auto slot = static_cast<std::uint32_t>(handle.key & kSlotMask);
    slab[slot].fn = nullptr;
    slotKey[slot] = kStaleKey;
    freeSlots.push_back(slot);
    --numPending;
    return true;
}

bool
EventQueue::pending(EventHandle handle) const
{
    // The null key's slot bits are the all-ones slot, which is never
    // allocated, so the bound check refuses it too.
    return (handle.key & kSlotMask) < slotKey.size() && live(handle.key);
}

void
EventQueue::skimStale()
{
    // A vacant root is a spent entry whose slot key takeRecord()
    // cleared, so it reads as stale and the loop drops it.
    vacantRoot = false;
    while (!heap.empty() && !live(heap.front().key))
        dropRoot();
}

bool
EventQueue::popNext(Tick &when_out, EventFn &fn_out)
{
    return popNextIfBefore(kMaxTick, when_out, fn_out);
}

bool
EventQueue::popNextIfBefore(Tick until, Tick &when_out, EventFn &fn_out)
{
    skimStale();
    if (heap.empty() || heap.front().when > until)
        return false;
    takeRecord(heap.front(), when_out, fn_out);
    vacantRoot = true;
    return true;
}

bool
EventQueue::runNext(Tick &now_out)
{
    EventFn fn;
    if (!popNext(now_out, fn))
        return false;
    fn();
    return true;
}

} // namespace afa::sim
