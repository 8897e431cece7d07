#include "nvme/smart.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace afa::nvme {

SmartEngine::SmartEngine(afa::sim::Simulator &simulator,
                         std::string engine_name,
                         const SmartConfig &smart_config)
    : SimObject(simulator, std::move(engine_name)),
      smartConfig(smart_config), stallHorizon(0),
      numCollections(0), numSaves(0)
{
}

void
SmartEngine::start()
{
    if (!smartConfig.enabled)
        return;
    // A zero period would reschedule collect() at the same tick
    // forever.
    if (smartConfig.period == 0)
        afa::sim::fatal("%s: SMART period must be positive",
                        name().c_str());
    // Randomised phase so 64 drives do not collect in lockstep --
    // matching the paper's observation that spikes from different
    // SSDs appear at different sample indices.
    Tick phase = static_cast<Tick>(
        rng().uniform(0.0, static_cast<double>(smartConfig.period)));
    after(phase, [this] { collect(); });
}

void
SmartEngine::collect()
{
    ++numCollections;
    bool is_save = smartConfig.saveEvery != 0 &&
        (numCollections % smartConfig.saveEvery) == 0;
    Tick median = is_save ? smartConfig.saveDuration
                          : smartConfig.updateDuration;
    Tick duration = static_cast<Tick>(rng().lognormal(
        static_cast<double>(median), smartConfig.durationSigma));
    if (is_save)
        ++numSaves;
    stallFor(duration);
    after(smartConfig.period, [this] { collect(); });
}

void
SmartEngine::stallFor(Tick duration)
{
    stallHorizon = std::max(stallHorizon, now() + duration);
}

} // namespace afa::nvme
