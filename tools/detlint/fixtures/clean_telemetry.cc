// Fixture: the sanctioned telemetry sampling idiom — an internal
// event in the top ordering band — lints clean. Mirrors the real
// scheduling site in src/obs/telemetry.cc.

#include "sim/simulator.hh"

namespace afa::fixture {

inline constexpr std::uint32_t kSampleOrderBand = 0xffffffffu;

void
scheduleSample(afa::sim::Simulator &sim, afa::sim::Tick when)
{
    sim.scheduleInternal(when, [] {}, kSampleOrderBand);
}

} // namespace afa::fixture
