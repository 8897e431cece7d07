#include "sim/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/sync.hh"
#include "core/thread_annotations.hh"

namespace afa::sim {

namespace {

// Global logger state and its concurrency contract
// -------------------------------------------------
//
// Worker threads of a parallel experiment sweep call warn()/panic()/
// fatal() concurrently while the main thread may call
// setThrowOnError(). Two pieces of shared state make that safe:
//
//  * g_throw is a std::atomic with relaxed ordering. It is a pure
//    configuration flag: no other memory is published through it, so
//    no acquire/release pairing is needed. Crucially it never feeds
//    simulation state, so it cannot perturb results.
//
//  * g_sink serialises the actual stream writes so a message is
//    emitted as one unbroken line even when several workers log at
//    once (stdio locks per call, but a prefix+body+newline emitted as
//    separate calls could interleave).
//
// Both are mutable process-globals, which detlint bans in simulator
// code precisely because shared state is how nondeterminism leaks
// into figures; logging is the audited exception since nothing here
// flows back into the simulation.
std::atomic<bool> g_throw{false}; // detlint:allow(mutable-static)

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

/**
 * Serialises emission of formatted log lines.
 *
 * Holding one process-wide mutex per line keeps concurrent workers'
 * messages whole without imposing any ordering between threads (the
 * arrival order of lines from different workers is unspecified, their
 * contents are not).
 */
class LogSink
{
  public:
    void write(std::FILE *stream, const char *prefix,
               const std::string &msg) AFA_EXCLUDES(mutex)
    {
        afa::sync::MutexLock lock(mutex);
        std::fprintf(stream, "%s: %s\n", prefix, msg.c_str());
    }

  private:
    afa::sync::Mutex mutex;
};

LogSink g_sink; // detlint:allow(mutable-static)

} // namespace

void
setThrowOnError(bool enable)
{
    g_throw.store(enable, std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    if (g_throw.load(std::memory_order_relaxed))
        throw SimError{"panic: " + msg};
    g_sink.write(stderr, "panic", msg);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    if (g_throw.load(std::memory_order_relaxed))
        throw SimError{"fatal: " + msg};
    g_sink.write(stderr, "fatal", msg);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    g_sink.write(stderr, "warn", msg);
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    return msg;
}

} // namespace afa::sim
