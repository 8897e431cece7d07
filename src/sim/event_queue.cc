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
    if (slab.size() > kSlotMask)
        panic("EventQueue: more than %llu concurrent events",
              (unsigned long long)kSlotMask);
    slab.emplace_back();
    slotKey.push_back(kStaleKey);
    return static_cast<std::uint32_t>(slab.size() - 1);
}

EventHandle
EventQueue::scheduleSlot(Tick when, bool tick_end, bool internal)
{
    if (nextSeq >= kMaxSeq)
        panicSeqExhausted();
    std::uint32_t slot = allocSlot();
    Record &rec = slab[slot];
    rec.scheduled = true;
    rec.internal = internal;
    std::uint64_t key = (nextSeq++ << kSlotBits) | slot;
    slotKey[slot] = key;
    const HeapEntry entry{when, key, tick_end};
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
    return EventHandle{slot, rec.gen};
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
    if (!handle.valid() || handle.slot >= slab.size())
        return false;
    Record &rec = slab[handle.slot];
    if (!rec.scheduled || rec.gen != handle.gen)
        return false;
    // Lazy deletion: invalidate the slot key so the heap entry is
    // stale; the slot is recycled when the entry surfaces.
    rec.scheduled = false;
    rec.fn = nullptr;
    ++rec.gen;
    slotKey[handle.slot] = kStaleKey;
    freeSlots.push_back(handle.slot);
    --numPending;
    return true;
}

bool
EventQueue::pending(EventHandle handle) const
{
    if (!handle.valid() || handle.slot >= slab.size())
        return false;
    const Record &rec = slab[handle.slot];
    return rec.scheduled && rec.gen == handle.gen;
}

void
EventQueue::skimStale()
{
    // A vacant root is a spent entry whose slot key takeRecord()
    // cleared, so it reads as stale and the loop drops it.
    vacantRoot = false;
    while (!heap.empty() && !live(heap.front()))
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
