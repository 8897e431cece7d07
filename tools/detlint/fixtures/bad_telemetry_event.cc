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

inline constexpr std::uint32_t kSampleOrderBand = 0xffffffffu;

void
scheduleSamples(afa::sim::Simulator &sim, afa::sim::EventQueue &queue,
                afa::sim::Tick period)
{
    const afa::sim::Tick when = sim.now() + period;

    // The top band alone does not make the sample plumbing: it is
    // still a counted model event.
    sim.scheduleAt(when, [] {}, kSampleOrderBand);

    // Relative scheduling is just as model-visible.
    sim.scheduleAfter(period, [] {});

    // A raw queue post bypasses the plumbing counter entirely.
    queue.schedule(when, [] {}, kSampleOrderBand);

    // The sanctioned idiom: internal, in the top ordering band so the
    // sample runs after every model event of its tick.
    sim.scheduleInternal(when, [] {}, kSampleOrderBand);

    // Audited exception: a debug probe meant to appear in the trace.
    // detlint:allow(telemetry-internal)
    sim.scheduleAt(when, [] {});
}

} // namespace afa::fixture
