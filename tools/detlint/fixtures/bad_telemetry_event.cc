// Fixture: telemetry sampling events posted as counted model events.
// The telemetry contract (DESIGN.md §13) makes canonical reports
// byte-identical with --telemetry on and off, which only holds while
// every sampling event is engine plumbing. Three wrong shapes must
// each fire once; the sanctioned idiom and the audited allow must
// not. The file name carries "telemetry" on purpose: the rule is
// scoped to telemetry sources.

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

    // A raw queue post bypasses the plumbing counter entirely, even
    // tick-end.
    queue.schedule(when, [] {}, /*tick_end=*/true);

    // The sanctioned idiom: internal and tick-end, so the sample runs
    // after every model event of its tick.
    sim.scheduleInternal(when, [] {}, /*tick_end=*/true);

    // Audited exception: a debug probe meant to appear in the trace.
    // detlint:allow(telemetry-internal)
    sim.scheduleAt(when, [] {});
}

} // namespace afa::fixture
