// Fixture: the sanctioned telemetry sampling idiom — an internal
// tick-end event — lints clean. Mirrors the real scheduling site in
// src/obs/telemetry.cc.

#include "sim/simulator.hh"

namespace afa::fixture {

void
scheduleSample(afa::sim::Simulator &sim, afa::sim::Tick when)
{
    sim.scheduleInternal(when, [] {}, /*tick_end=*/true);
}

} // namespace afa::fixture
