/**
 * @file
 * FaultPlan: a deterministic, replayable schedule of typed fault
 * events parsed from a small text spec.
 *
 * A plan is pure data — which SSD misbehaves, when, for how long, and
 * how badly — plus the host driver's timeout/retry policy. The
 * FaultEngine applies it onto the sim clock; every random draw the
 * faults cause (PCIe replay coin flips) comes from the engine's
 * seeded stream, so a faulted run replays byte-identically at any
 * --jobs / --seeds (DESIGN.md "Fault model & recovery contract").
 *
 * Spec format, one directive per line, '#' comments:
 *
 *     # driver policy
 *     timeout_ms 10
 *     max_retries 3
 *     retry_backoff_ms 1
 *
 *     # fault events (times/durations in milliseconds of sim time)
 *     limp       ssd=3 at_ms=20 dur_ms=40 factor=8
 *     dropout    ssd=5 at_ms=10 dur_ms=15
 *     link_error ssd=2 at_ms=5  dur_ms=30 rate=0.2
 *     ctrl_stall ssd=0 at_ms=12 dur_ms=2
 */

#ifndef AFA_FAULT_FAULT_PLAN_HH
#define AFA_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace afa::fault {

using afa::sim::Tick;

/** The fault taxonomy (DESIGN.md §11). */
enum class FaultKind : std::uint8_t {
    /** Device serves IO but media/pipeline time scales by `factor`. */
    Limp,
    /** Device stops answering entirely; commands sent to it are lost
     *  and only the host driver's timeout path recovers them. */
    Dropout,
    /** The device's PCIe links corrupt TLPs with probability `rate`;
     *  each corrupted transfer is replayed (retransmitted) in full. */
    LinkError,
    /** Controller pipeline freezes (firmware-internal stall). */
    CtrlStall,
};

/** Stable display name of a fault kind ("limp", "dropout", ...). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault: [at, at + duration) on one SSD. */
struct FaultEvent
{
    FaultKind kind = FaultKind::Limp;
    unsigned ssd = 0;     ///< target SSD index
    Tick at = 0;          ///< onset (sim time)
    Tick duration = 0;    ///< how long the fault persists
    double factor = 1.0;  ///< Limp: latency multiplier, [1, 1e6]
    double rate = 0.0;    ///< LinkError: per-transfer error probability
};

/**
 * A parsed fault plan: the event schedule plus the host driver
 * timeout/retry policy that is armed whenever a plan is loaded.
 */
struct FaultPlan
{
    /** Driver command timeout; expired commands are retried. */
    Tick nvmeTimeout = afa::sim::msec(10);
    /** Retries before the driver gives up (Status::TimedOut). */
    unsigned maxRetries = 3;
    /** First retry backoff; doubles per attempt (bounded by retries). */
    Tick retryBackoff = afa::sim::msec(1);

    std::vector<FaultEvent> events;

    /** Parse a plan from a spec file; sim::fatal on syntax errors. */
    static FaultPlan parseFile(const std::string &path);

    /** Parse a plan from spec text (for tests). */
    static FaultPlan parseText(std::string_view text,
                               std::string_view origin = "<text>");

    /** Human-readable one-event-per-line summary (--fault-summary). */
    std::string summary() const;
};

} // namespace afa::fault

#endif // AFA_FAULT_FAULT_PLAN_HH
