#include "obs/span_log.hh"

#include <algorithm>

#include "obs/telemetry.hh"

namespace afa::obs {

namespace {

/** Initial ring allocation; doubles until the capacity is reached. */
constexpr std::size_t kInitialRing = 1024;

} // namespace

SpanLog::SpanLog(const TraceParams &params)
    : mask_(params.mask), cap(params.capacity)
{
    if (mask_ != 0)
        ring.reserve(std::min(kInitialRing, cap));
}

void
SpanLog::record(Stage stage, std::uint64_t io, Tick begin, Tick end,
                std::uint16_t track, std::uint8_t flags,
                std::uint32_t arg)
{
    if (!wants(categoryOf(stage)))
        return;

    ++numRecorded;
    accum.add(stage, end - begin);
    if (telemetry_ != nullptr)
        telemetry_->recordSpan(stage, end, end - begin);
    if (cap == 0)
        return;

    SpanRecord rec;
    rec.begin = begin;
    rec.end = end;
    rec.io = io;
    rec.arg = arg;
    rec.track = track;
    rec.stage = static_cast<std::uint8_t>(stage);
    rec.flags = flags;

    if (ring.size() < cap) {
        // Growth phase: push_back doubles the allocation
        // geometrically; clamp the final step to the capacity so the
        // ring never holds more than cap records.
        if (ring.size() == ring.capacity())
            ring.reserve(std::min(cap, ring.capacity() * 2));
        ring.push_back(rec);
        return;
    }
    // Wrap phase: overwrite the oldest record.
    ring[head] = rec;
    head = (head + 1) % cap;
    ++numDropped;
}

std::vector<SpanRecord>
SpanLog::snapshot() const
{
    // head is 0 until the ring wraps, so this is oldest-first in both
    // phases.
    std::vector<SpanRecord> out;
    out.reserve(ring.size());
    out.insert(out.end(), ring.begin() + head, ring.end());
    out.insert(out.end(), ring.begin(), ring.begin() + head);
    return out;
}

} // namespace afa::obs
