/**
 * @file
 * FaultEngine: applies a FaultPlan onto the sim clock.
 *
 * One SimObject ("afa.faults") that, at start(), schedules an
 * apply/revert event pair for every plan event and flips the fault
 * hooks on the target components: Controller limp/offline/stall,
 * Fabric per-endpoint link error rates. Its per-object random stream
 * (forked from the run seed by name, like every SimObject) is the
 * plan's seeded stream: it is handed to the Fabric for replay coin
 * flips, and nothing else may draw fault randomness (detlint:
 * fault-rng). Because SimObject streams are forked by name, adding
 * the engine to a run does not perturb any other component's draws —
 * a run with an empty plan is tick-identical to a run with none.
 */

#ifndef AFA_FAULT_FAULT_ENGINE_HH
#define AFA_FAULT_FAULT_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.hh"
#include "nvme/controller.hh"
#include "pcie/fabric.hh"
#include "sim/sim_object.hh"

namespace afa::fault {

/** Fault application counters (publishMetrics / tests). */
struct FaultEngineStats
{
    std::uint64_t applied = 0;  ///< fault onsets fired
    std::uint64_t reverted = 0; ///< fault windows closed
    std::uint64_t active = 0;   ///< faults currently in force
};

/** Applies a FaultPlan's events to the controllers and fabric. */
class FaultEngine : public afa::sim::SimObject
{
  public:
    /**
     * @p controllers and @p ssd_nodes are parallel, indexed by the
     * plan's `ssd=` field; @p fabric may be null when no LinkError
     * event targets it (unit tests).
     */
    FaultEngine(afa::sim::Simulator &simulator,
                std::shared_ptr<const FaultPlan> fault_plan,
                std::vector<afa::nvme::Controller *> controllers,
                afa::pcie::Fabric *fabric_ptr,
                std::vector<afa::pcie::NodeId> ssd_nodes);

    /**
     * Validate targets and schedule every apply/revert event.
     *
     * Each edge of a plan event is one counted event at its plan tick
     * that updates the books and flips the target's fault hook. The
     * edges are posted here, before the run posts anything, so each
     * runs ahead of every event the run posts for its tick (DESIGN.md
     * §11): a command that reaches its SSD on an onset tick takes
     * the fault.
     */
    void start();

    const FaultPlan &plan() const { return *planRef; }
    const FaultEngineStats &stats() const { return engStats; }

  private:
    std::shared_ptr<const FaultPlan> planRef;
    std::vector<afa::nvme::Controller *> ctrls;
    afa::pcie::Fabric *fabric;
    std::vector<afa::pcie::NodeId> ssdNodes;
    FaultEngineStats engStats;

    void apply(const FaultEvent &event);
    void revert(const FaultEvent &event);
};

} // namespace afa::fault

#endif // AFA_FAULT_FAULT_ENGINE_HH
