/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * panic() - an internal invariant was violated (simulator bug); aborts.
 * fatal() - the user supplied an impossible configuration; exits(1).
 * warn()  - something is suspicious but simulation can continue.
 *
 * All functions accept printf-style format strings and are checked by
 * the compiler.
 *
 * Thread safety: every function here may be called concurrently from
 * parallel-sweep workers. The throw switch is a relaxed atomic, and
 * emitted lines are serialised by a mutex so they never interleave
 * mid-line. See the contract comment in logging.cc.
 */

#ifndef AFA_SIM_LOGGING_HH
#define AFA_SIM_LOGGING_HH

#include <stdexcept>
#include <string>

namespace afa::sim {

/**
 * Report an internal simulator bug and abort.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit a warning on stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Throwing variants used by tests: when set, panic/fatal raise
 * SimError instead of terminating the process.
 */
struct SimError : std::runtime_error
{
    explicit SimError(const std::string &msg)
        : std::runtime_error(msg), message(msg)
    {
    }

    std::string message;
};

/** Enable/disable throwing behaviour for panic()/fatal(). */
void setThrowOnError(bool enable);

} // namespace afa::sim

#endif // AFA_SIM_LOGGING_HH
