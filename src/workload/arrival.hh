/**
 * @file
 * Arrival-time and hot-spot generators for open-loop traffic
 * (DESIGN.md §14).
 *
 * An ArrivalProcess produces the inter-arrival gaps of one traffic
 * stream: Poisson (exponential gaps at a configured mean rate) or
 * bursty — a Markov-modulated on/off process whose on phases fire at
 * burstFactor times the mean rate and whose off phases are silent,
 * duty-cycled so the long-run rate still equals ratePerSec. A
 * ZipfGenerator skews device selection toward low ranks with the
 * classic Gray et al. / YCSB incremental algorithm.
 *
 * Determinism contract: neither class owns an Rng. Every draw comes
 * from a caller-provided stream (the engine's named fork), so the
 * arrival sequence is a pure function of (--seed, stream tag) and
 * byte-identical at any --jobs. Constructing a fresh Rng
 * anywhere in arrival/open-loop code is banned by the detlint
 * `arrival-rng` rule.
 */

#ifndef AFA_WORKLOAD_ARRIVAL_HH
#define AFA_WORKLOAD_ARRIVAL_HH

#include <cstdint>

#include "sim/random.hh"
#include "sim/types.hh"

namespace afa::workload {

using afa::sim::Tick;

/** Configuration of one arrival stream. */
struct ArrivalParams
{
    /**
     * Long-run mean arrival rate of this stream (ops/sec). Rates whose
     * mean gap exceeds kMaxTick / 37 ns are fatal: a gap could overflow
     * Tick.
     */
    double ratePerSec = 10000.0;

    /**
     * Above 1 the stream is bursty: a Markov-modulated on/off process
     * (MMPP-2 with a silent phase) whose on phases fire at
     * burstFactor * ratePerSec, duty-cycled at 1/burstFactor so the
     * mean stays ratePerSec. At 1 or below, arrivals are Poisson
     * (memoryless at the mean rate).
     */
    double burstFactor = 1.0;

    /** Bursty only: mean on-phase duration (exponential). */
    Tick onMean = afa::sim::msec(5);
};

/**
 * One stream's arrival clock. Pure gap state — all randomness is
 * drawn from the Rng the caller passes in, never owned here.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalParams &params);

    /** Ticks from the previous arrival to the next one (>= 1). */
    Tick nextGap(afa::sim::Rng &rng);

    const ArrivalParams &params() const { return p; }

  private:
    ArrivalParams p;
    bool bursty;       ///< burstFactor > 1
    double onGapMean;  ///< mean gap within an on phase (ns)
    double onMeanNs;   ///< mean on-phase length (ns)
    double offMeanNs;  ///< mean off-phase length (ns)
    double onLeft;     ///< remaining ns of the current on phase
};

/**
 * Zipfian rank generator over [0, n): rank 0 is the hottest. theta in
 * [0, 1); 0 degenerates to uniform. Precomputes the harmonic
 * normaliser once, so next() is O(1) (Gray et al., as used by YCSB).
 */
class ZipfGenerator
{
  public:
    explicit ZipfGenerator(std::uint64_t n = 1, double theta = 0.0);

    /** Next rank in [0, n). */
    std::uint64_t next(afa::sim::Rng &rng) const;

    double theta() const { return skew; }
    std::uint64_t size() const { return count; }

  private:
    std::uint64_t count;
    double skew;
    double zetan;
    double alpha;
    double eta;
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_ARRIVAL_HH
