/**
 * @file
 * Fundamental simulation types: ticks (integer nanoseconds) and
 * convenience duration constructors.
 */

#ifndef AFA_SIM_TYPES_HH
#define AFA_SIM_TYPES_HH

#include <compare>
#include <cstdint>
#include <limits>

namespace afa::sim {

/** Simulated time in integer nanoseconds. */
using Tick = std::uint64_t;

/** A tick value that never arrives; used as "no deadline". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** One nanosecond expressed in ticks. */
constexpr Tick kNsec = 1;
/** One microsecond expressed in ticks. */
constexpr Tick kUsec = 1000 * kNsec;
/** One millisecond expressed in ticks. */
constexpr Tick kMsec = 1000 * kUsec;
/** One second expressed in ticks. */
constexpr Tick kSec = 1000 * kMsec;

/** Construct a tick count from nanoseconds. */
constexpr Tick nsec(double n) { return static_cast<Tick>(n * kNsec); }
/** Construct a tick count from microseconds. */
constexpr Tick usec(double n) { return static_cast<Tick>(n * kUsec); }
/** Construct a tick count from milliseconds. */
constexpr Tick msec(double n) { return static_cast<Tick>(n * kMsec); }
/** Construct a tick count from seconds. */
constexpr Tick sec(double n) { return static_cast<Tick>(n * kSec); }

/** Convert ticks to (fractional) microseconds. */
constexpr double toUsec(Tick t) { return static_cast<double>(t) / kUsec; }
/** Convert ticks to (fractional) milliseconds. */
constexpr double toMsec(Tick t) { return static_cast<double>(t) / kMsec; }
/** Convert ticks to (fractional) seconds. */
constexpr double toSec(Tick t) { return static_cast<double>(t) / kSec; }

// ---------------------------------------------------------------------
// Strong unit wrapper.
//
// Tick stays a bare integer for queue/clock arithmetic, but a byte
// count passed where a time is expected would silently convert into
// Tick. Bytes is an explicit-construction wrapper for payload sizes;
// the only sanctioned crossing into time is transferTicks() below,
// which, with the duration helpers above, the tick-units rule of
// tools/detlint/detlint_ast.py allowlists (see DESIGN.md
// "Static-analysis contract").
// ---------------------------------------------------------------------

/**
 * A payload size. Distinct from Tick so byte counts cannot flow into
 * time arithmetic except through an explicit rate conversion.
 */
struct Bytes
{
    std::uint64_t n = 0;

    Bytes() = default;
    explicit constexpr Bytes(std::uint64_t count) : n(count) {}

    /** The size in bytes. */
    constexpr std::uint64_t count() const { return n; }

    constexpr bool operator==(const Bytes &) const = default;
    constexpr auto operator<=>(const Bytes &) const = default;

    constexpr Bytes operator+(Bytes o) const { return Bytes{n + o.n}; }
    constexpr Bytes operator-(Bytes o) const { return Bytes{n - o.n}; }
    constexpr Bytes &
    operator+=(Bytes o)
    {
        n += o.n;
        return *this;
    }
};

/**
 * The sanctioned Bytes -> time crossing: serialization time of
 * @p payload at @p bytes_per_sec. Mirrors the hand-rolled
 * bytes / rate * 1e9 conversions it replaced exactly (same division
 * and multiplication order) so figures stay bit-identical.
 */
constexpr Tick
transferTicks(Bytes payload, double bytes_per_sec)
{
    return static_cast<Tick>(
        static_cast<double>(payload.count()) / bytes_per_sec * 1e9);
}

} // namespace afa::sim

#endif // AFA_SIM_TYPES_HH
