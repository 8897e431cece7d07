/**
 * @file
 * The SMART housekeeping engine (Section IV-E).
 *
 * Real firmware periodically collects SMART/health data and
 * occasionally saves it to NAND; on the paper's drives this stalls
 * command processing for long enough to produce the periodic ~600 us
 * spike clusters of Fig. 10. The engine here raises a "pipeline
 * stalled until T" horizon the controller honours; the experimental
 * firmware (SmartConfig::enabled = false) never raises it.
 */

#ifndef AFA_NVME_SMART_HH
#define AFA_NVME_SMART_HH

#include "nvme/firmware_config.hh"
#include "sim/sim_object.hh"

namespace afa::nvme {

/** Periodic SMART data update/save stall generator. */
class SmartEngine : public afa::sim::SimObject
{
  public:
    SmartEngine(afa::sim::Simulator &simulator, std::string engine_name,
                const SmartConfig &smart_config);

    /** Begin the periodic schedule (randomised phase offset). */
    void start();

    /**
     * The tick until which the I/O pipeline is stalled by
     * housekeeping; 0 when never stalled. Controllers take
     * max(now, stalledUntil()) before serving a command.
     */
    Tick stalledUntil() const { return stallHorizon; }

    /**
     * Stall the I/O pipeline for @p duration from now; collect()
     * raises each update/save stall through it. A shorter stall
     * never pulls an existing horizon in.
     */
    void stallFor(Tick duration);

    /** Number of periodic collections performed so far. */
    std::uint64_t collections() const { return numCollections; }

    /** Number of those that were saves (NAND-backed, longer). */
    std::uint64_t saves() const { return numSaves; }

    const SmartConfig &config() const { return smartConfig; }

  private:
    SmartConfig smartConfig;
    Tick stallHorizon;
    std::uint64_t numCollections;
    std::uint64_t numSaves;

    void collect();
};

} // namespace afa::nvme

#endif // AFA_NVME_SMART_HH
