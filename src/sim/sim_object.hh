/**
 * @file
 * Base class for named simulation components.
 */

#ifndef AFA_SIM_SIM_OBJECT_HH
#define AFA_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace afa::sim {

/**
 * A named component bound to a Simulator.
 *
 * Provides schedule helpers and a per-object random stream forked from
 * the simulator's root stream using the object name, so adding or
 * removing unrelated components does not perturb an object's draws.
 */
class SimObject
{
  public:
    SimObject(Simulator &simulator, std::string object_name)
        : simRef(simulator),
          objName(std::move(object_name)),
          objRng(simulator.rng().fork(objName))
    {
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** The owning simulator. */
    Simulator &sim() { return simRef; }
    const Simulator &sim() const { return simRef; }

    /** Hierarchical object name (e.g. "afa.ssd3.smart"). */
    const std::string &name() const { return objName; }

    /** Current simulated time. */
    Tick now() const { return simRef.now(); }

    /** Schedule a callback @p delay from now. */
    template <typename F>
    EventHandle
    after(Tick delay, F &&fn)
    {
        return simRef.scheduleAfter(delay, std::forward<F>(fn));
    }

    /** Schedule a callback at absolute time @p when. */
    template <typename F>
    EventHandle
    at(Tick when, F &&fn)
    {
        return simRef.scheduleAt(when, std::forward<F>(fn));
    }

    /** Per-object deterministic random stream. */
    Rng &rng() { return objRng; }

  private:
    Simulator &simRef;
    std::string objName;
    Rng objRng;
};

} // namespace afa::sim

#endif // AFA_SIM_SIM_OBJECT_HH
