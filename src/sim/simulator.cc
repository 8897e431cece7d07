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
        Tick when = 0;
        EventFn fn;
        if (!q.popNextIfBefore(until, when, fn)) {
            // Drained, or the next event is beyond the bound; never
            // move the clock backwards when the bound is in the past.
            if (!q.empty())
                clock = std::max(clock, until);
            break;
        }
        clock = when;
        fn();
    }
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
    return executed;
}

} // namespace afa::sim
