/**
 * @file
 * The Simulator owns simulated time, the event queue, and the root
 * random stream. All SimObjects hold a reference to one Simulator.
 *
 * A plain serial discrete-event loop: one EventQueue, one clock. Events
 * are either model events (scheduleAt/scheduleAfter) or engine
 * plumbing (scheduleInternal: fabric hop and mid-path continuations).
 * Plumbing runs like any other event but is left out of
 * executedEvents(), so the `events=` line of every figure counts
 * exactly one event per delivered packet, whichever transport path
 * the packet took, and one per fault edge.
 *
 * Same-tick events run in the order they were scheduled (DESIGN.md
 * §9 rule 1). A sampler (sampleEvery()) is not an event: run() calls
 * it between ticks.
 */

#ifndef AFA_SIM_SIMULATOR_HH
#define AFA_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace afa::sim {

/** Discrete-event simulator: a clock, an event queue and a root RNG. */
class Simulator
{
  public:
    /**
     * Construct with the root random seed. @p event_cores must be 1:
     * it is kept for source compatibility with callers written for the
     * retired sharded core, and any other value is a fatal error.
     */
    explicit Simulator(std::uint64_t seed = 1, unsigned event_cores = 1);

    /** Current simulated time. */
    Tick now() const { return clock; }

    /** Schedule @p fn at absolute time @p when (>= now). */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn)
    {
        if (when < clock)
            panicPastEvent(when, clock);
        return q.schedule(when, std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        if (delay > kMaxTick - clock)
            panicDelayOverflow();
        return q.schedule(clock + delay, std::forward<F>(fn));
    }

    /**
     * scheduleAt() for engine plumbing: the event runs normally but is
     * excluded from executedEvents() and counted in plumbingEvents()
     * instead. "Internal" is a flag on the event's queue slot, so the
     * closure is stored as given and costs what scheduleAt() costs.
     * The plumbing counter advances as the event is popped, before
     * its callback runs, so an internal event reading the counters
     * sees itself in both -- i.e. exactly the model events so far.
     */
    template <typename F>
    EventHandle
    scheduleInternal(Tick when, F &&fn)
    {
        if (when < clock)
            panicPastEvent(when, clock);
        return q.schedule(when, std::forward<F>(fn), /*internal=*/true);
    }

    /** Cancel a pending event; see EventQueue::cancel. */
    bool cancel(EventHandle handle) { return q.cancel(handle); }

    /** True if @p handle refers to a pending event. */
    bool pending(EventHandle handle) const { return q.pending(handle); }

    /**
     * Run until the queue drains or @p until is reached.
     *
     * Events scheduled exactly at @p until do execute. When events
     * remain beyond the bound the clock rests at @p until.
     *
     * A sampler is called at each sample tick T up to @p until once
     * every event of T has run, those posted during T included, and
     * the clock then rests at @p until even with no event left; an
     * unbounded run() ends where its queue drains.
     *
     * @return number of model events executed by this call
     *         (excluding internal plumbing events).
     */
    std::uint64_t run(Tick until = kMaxTick);

    /**
     * Run at most @p max_events events, plumbing included (for
     * debugging/stepping). Takes no samples: the sample ticks the
     * steps pass are skipped.
     * @return number executed.
     */
    std::uint64_t runSteps(std::uint64_t max_events);

    /**
     * Install the sampler: run() calls @p fn between ticks at every
     * multiple of @p period after now(). It is not an event: it moves
     * no event count and no same-tick order. A period of 0, or a
     * second sampler, panics.
     */
    void sampleEvery(Tick period, std::function<void()> fn);

    /** Remove the sampler, if any; not from inside it. */
    void stopSampling();

    /** Pending event count. */
    std::size_t pendingEvents() const { return q.size(); }

    /** Model events executed since construction (plumbing excluded). */
    std::uint64_t
    executedEvents() const
    {
        return q.executed() - q.internalExecuted();
    }

    /** Internal plumbing events executed since construction. */
    std::uint64_t plumbingEvents() const { return q.internalExecuted(); }

    /** The root random stream (fork children from this). */
    Rng &rng() { return rootRng; }

    /** The seed the simulation was constructed with. */
    std::uint64_t seed() const { return rootRng.seed(); }

  private:
    [[noreturn]] static void panicPastEvent(Tick when, Tick now_tick);
    [[noreturn]] static void panicDelayOverflow();

    /** The first sample tick after @p t. */
    Tick
    sampleTickAfter(Tick t) const
    {
        return (t / samplePeriod + 1) * samplePeriod;
    }

    EventQueue q;
    Tick clock = 0;
    Rng rootRng;
    std::function<void()> sampler;
    Tick samplePeriod = 0;
    /** The next sample tick; kMaxTick when no sample is due. */
    Tick nextSample = kMaxTick;
};

} // namespace afa::sim

#endif // AFA_SIM_SIMULATOR_HH
