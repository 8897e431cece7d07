// Fixture: telemetry sampling posted as events. The telemetry
// contract (DESIGN.md §13) makes canonical reports byte-identical
// with --telemetry on and off, which holds because samples are taken
// between ticks by the simulator's sampler, not in events. Four wrong
// shapes must each fire once; the sanctioned idiom and the audited
// allow must not. The file name carries "telemetry" on purpose: the
// rule is scoped to telemetry sources.

#include "sim/event_queue.hh"
#include "sim/simulator.hh"

namespace afa::fixture {

void
scheduleSamples(afa::sim::Simulator &sim, afa::sim::EventQueue &queue,
                afa::sim::Tick period)
{
    const afa::sim::Tick when = sim.now() + period;

    // An absolute post at the sample tick is still a counted model
    // event.
    sim.scheduleAt(when, [] {});

    // Relative scheduling is just as model-visible.
    sim.scheduleAfter(period, [] {});

    // A raw queue post bypasses the plumbing counter entirely.
    queue.schedule(when, [] {});

    // An internal post is still an event: it moves the plumbing
    // count, and it runs in post order inside its tick, not after it.
    sim.scheduleInternal(when, [] {});

    // The sanctioned idiom: the simulator's sampler runs between
    // ticks, after every event of the sampled tick.
    sim.sampleEvery(period, [] {});

    // Audited exception: a debug probe meant to appear in the trace.
    // detlint:allow(telemetry-internal)
    sim.scheduleAt(when, [] {});
}

} // namespace afa::fixture
