#include "sim/simulator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace afa::sim {

Simulator::Simulator(std::uint64_t seed, unsigned event_cores)
    : rootRng(seed)
{
    if (event_cores != 1)
        fatal("Simulator: %u event cores requested; the sharded event "
              "core was removed and the simulator is serial only "
              "(pass 1)", event_cores);
}

void
Simulator::panicPastEvent(Tick when, Tick now_tick)
{
    panic("scheduleAt: time %llu is in the past (now %llu)",
          (unsigned long long)when, (unsigned long long)now_tick);
}

void
Simulator::panicDelayOverflow()
{
    panic("scheduleAfter: delay overflows the clock");
}

std::uint64_t
Simulator::run(Tick until)
{
    const std::uint64_t before = executedEvents();
    for (;;) {
        const bool sample_due = nextSample <= until && nextSample != kMaxTick;
        const Tick bound = sample_due ? nextSample : until;
        for (;;) {
            Tick when = 0;
            EventFn fn;
            if (!q.popNextIfBefore(bound, when, fn))
                break;
            clock = when;
            fn();
        }
        if (!sample_due)
            break;
        // An unbounded run has no tick to sample up to once its queue
        // drains.
        if (until == kMaxTick && q.empty())
            return executedEvents() - before;
        clock = nextSample;
        nextSample = sampleTickAfter(clock);
        sampler();
    }
    // The next event or sample is beyond the bound; never move the
    // clock backwards when the bound is in the past.
    if (!q.empty() || nextSample != kMaxTick)
        clock = std::max(clock, until);
    return executedEvents() - before;
}

std::uint64_t
Simulator::runSteps(std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    while (executed < max_events) {
        Tick when = 0;
        EventFn fn;
        if (!q.popNext(when, fn))
            break;
        clock = when;
        fn();
        ++executed;
    }
    // Steps take no samples: skip the sample ticks they passed.
    if (nextSample < clock)
        nextSample = sampleTickAfter(clock - 1);
    return executed;
}

void
Simulator::sampleEvery(Tick period, std::function<void()> fn)
{
    if (period == 0 || !fn || sampler)
        panic("sampleEvery: one sampler per simulator, with a nonzero "
              "period");
    sampler = std::move(fn);
    samplePeriod = period;
    nextSample = sampleTickAfter(clock);
}

void
Simulator::stopSampling()
{
    sampler = nullptr;
    nextSample = kMaxTick;
}

} // namespace afa::sim
