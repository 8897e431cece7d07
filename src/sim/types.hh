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
// Strong unit wrappers.
//
// Tick stays a bare integer for queue/clock arithmetic, but interface
// parameters that are *not* absolute sim times should not be: a byte
// count, a duration, or a host wall-clock delta silently converts
// into Tick otherwise. TickDelta and Bytes are explicit-construction
// wrappers for those quantities; the only sanctioned crossings between
// the unit domains are the named helpers in this header, which the
// tick-units rule of tools/detlint/detlint_ast.py allowlists (see
// DESIGN.md "Static-analysis contract").
// ---------------------------------------------------------------------

/**
 * A signed span of simulated time (a difference of Ticks):
 * propagation delays, backoff windows. Signed so that
 * "earlier - later" stays representable during interval arithmetic.
 */
struct TickDelta
{
    std::int64_t ticks = 0;

    TickDelta() = default;
    explicit constexpr TickDelta(std::int64_t t) : ticks(t) {}

    /** The span in integer nanosecond ticks. */
    constexpr std::int64_t count() const { return ticks; }

    constexpr bool operator==(const TickDelta &) const = default;
    constexpr auto operator<=>(const TickDelta &) const = default;

    constexpr TickDelta operator+(TickDelta o) const
    {
        return TickDelta{ticks + o.ticks};
    }
    constexpr TickDelta operator-(TickDelta o) const
    {
        return TickDelta{ticks - o.ticks};
    }
    constexpr TickDelta operator-() const { return TickDelta{-ticks}; }
};

/** The span from @p earlier to @p later (negative if reversed). */
constexpr TickDelta
delta(Tick later, Tick earlier)
{
    return TickDelta{static_cast<std::int64_t>(later) -
                     static_cast<std::int64_t>(earlier)};
}

/** Advance an absolute time by a span. */
constexpr Tick
operator+(Tick t, TickDelta d)
{
    return t + static_cast<Tick>(d.count());
}

/** Rewind an absolute time by a span. */
constexpr Tick
operator-(Tick t, TickDelta d)
{
    return t - static_cast<Tick>(d.count());
}

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
