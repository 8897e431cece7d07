// Fixture: the sanctioned telemetry sampling idiom -- the simulator's
// sampler, which posts no event -- lints clean. Mirrors the real
// sampling site in src/obs/telemetry.cc.

#include "sim/simulator.hh"

namespace afa::fixture {

void
startSampling(afa::sim::Simulator &sim, afa::sim::Tick window)
{
    sim.sampleEvery(window, [] {});
}

void
finishSampling(afa::sim::Simulator &sim)
{
    sim.stopSampling();
}

} // namespace afa::fixture
