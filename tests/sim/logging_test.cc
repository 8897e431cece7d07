/**
 * @file
 * Tests for logging helpers: formatting, throw-on-error behaviour,
 * and the concurrency contract of the global logger (relaxed-atomic
 * throw switch + mutex-serialised sink). The concurrency tests are
 * the workload the TSan CI job runs to prove log() is race-free
 * during parallel sweeps.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace {

TEST(LoggingTest, StrfmtFormats)
{
    EXPECT_EQ(afa::sim::strfmt("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
    EXPECT_EQ(afa::sim::strfmt("%s", "plain"), "plain");
    EXPECT_EQ(afa::sim::strfmt("empty"), "empty");
}

TEST(LoggingTest, PanicThrowsWhenConfigured)
{
    afa::sim::setThrowOnError(true);
    try {
        afa::sim::panic("broken %d", 7);
        FAIL() << "panic returned";
    } catch (const afa::sim::SimError &e) {
        EXPECT_EQ(e.message, "panic: broken 7");
    }
    afa::sim::setThrowOnError(false);
}

TEST(LoggingTest, FatalThrowsWhenConfigured)
{
    afa::sim::setThrowOnError(true);
    try {
        afa::sim::fatal("bad config '%s'", "x");
        FAIL() << "fatal returned";
    } catch (const afa::sim::SimError &e) {
        EXPECT_EQ(e.message, "fatal: bad config 'x'");
    }
    afa::sim::setThrowOnError(false);
}

// Workers log concurrently, mirroring a parallel experiment sweep.
// TSan must see no race on the shared sink, and every emitted line
// must arrive whole: the sink writes prefix, message and newline
// under one lock, so a torn line means the mutex contract broke.
TEST(LoggingTest, ConcurrentLoggingIsRaceFreeAndLineAtomic)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kMessages = 200;

    testing::internal::CaptureStderr();
    {
        std::vector<std::jthread> workers;
        workers.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            workers.emplace_back([t] {
                for (unsigned i = 0; i < kMessages; ++i)
                    afa::sim::warn("worker-%u-msg-%u", t, i);
            });
        }
    }
    std::string err = testing::internal::GetCapturedStderr();

    // Every line present must be a complete "warn: worker-T-msg-I"
    // (no interleaved fragments).
    std::istringstream lines(err);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_TRUE(line.rfind("warn: worker-", 0) == 0 &&
                    line.find("-msg-") != std::string::npos)
            << "torn or foreign log line: '" << line << "'";
    }
    EXPECT_LE(count, std::size_t{kThreads} * kMessages);
    EXPECT_GT(count, std::size_t{0});
}

// setThrowOnError raced with panicking workers: each worker sees
// either the throwing or aborting contract, atomically. Keep the
// flag fixed at true while workers panic to assert the throw path is
// thread-safe.
TEST(LoggingTest, ConcurrentPanicThrowsAreIsolated)
{
    afa::sim::setThrowOnError(true);
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < 4; ++t) {
        workers.emplace_back([t] {
            for (unsigned i = 0; i < 50; ++i) {
                try {
                    afa::sim::panic("boom-%u-%u", t, i);
                    ADD_FAILURE() << "panic returned";
                } catch (const afa::sim::SimError &e) {
                    EXPECT_EQ(e.message,
                              afa::sim::strfmt("panic: boom-%u-%u",
                                               t, i));
                }
            }
        });
    }
    workers.clear();
    afa::sim::setThrowOnError(false);
}

TEST(TypesTest, DurationHelpers)
{
    using namespace afa::sim;
    EXPECT_EQ(usec(1), 1000u);
    EXPECT_EQ(msec(1), 1000u * 1000u);
    EXPECT_EQ(sec(1), 1000u * 1000u * 1000u);
    EXPECT_EQ(usec(2.5), 2500u);
    EXPECT_DOUBLE_EQ(toUsec(usec(30)), 30.0);
    EXPECT_DOUBLE_EQ(toMsec(msec(5)), 5.0);
    EXPECT_DOUBLE_EQ(toSec(sec(2)), 2.0);
}

} // namespace
