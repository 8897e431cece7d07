/**
 * @file
 * Tests for the Config store and its argv parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"

using afa::sim::Config;

namespace {

/** The fatal() message @p fn fails with ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const afa::sim::SimError &e) {
        return e.message;
    }
    return "";
}

class ConfigTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Config cfg;
};

TEST_F(ConfigTest, MissingKeysYieldDefaults)
{
    EXPECT_EQ(cfg.getString("a", "dflt"), "dflt");
    EXPECT_EQ(cfg.getUint("c", 9), 9u);
    EXPECT_TRUE(cfg.getBool("d", true));
    EXPECT_DOUBLE_EQ(cfg.getDouble("e", 2.5), 2.5);
}

TEST_F(ConfigTest, SetAndGetRoundTrip)
{
    cfg.set("s", "hello");
    cfg.set("u", "42");
    cfg.set("b", "true");
    cfg.set("d", "3.25");
    EXPECT_EQ(cfg.getString("s", ""), "hello");
    EXPECT_EQ(cfg.getUint("u", 0), 42u);
    EXPECT_TRUE(cfg.getBool("b", false));
    EXPECT_DOUBLE_EQ(cfg.getDouble("d", 0.0), 3.25);
}

TEST_F(ConfigTest, BoolAcceptsCommonSpellings)
{
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        cfg.set("k", t);
        EXPECT_TRUE(cfg.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "FALSE"}) {
        cfg.set("k", f);
        EXPECT_FALSE(cfg.getBool("k", true)) << f;
    }
}

TEST_F(ConfigTest, MalformedValuesAreFatal)
{
    cfg.set("k", "not-a-number");
    EXPECT_THROW(cfg.getUint("k", 0), afa::sim::SimError);
    EXPECT_THROW(cfg.getDouble("k", 0.0), afa::sim::SimError);
    EXPECT_THROW(cfg.getBool("k", false), afa::sim::SimError);
    for (const char *raw : {"nan", "inf", "-inf", "1e400"}) {
        cfg.set("k", raw);
        EXPECT_THROW(cfg.getDouble("k", 0.0), afa::sim::SimError) << raw;
    }
}

TEST_F(ConfigTest, NegativeRejectedForUint)
{
    cfg.set("k", "-5");
    EXPECT_THROW(cfg.getUint("k", 0), afa::sim::SimError);
}

TEST_F(ConfigTest, HexIntegersParse)
{
    cfg.set("k", "0x20");
    EXPECT_EQ(cfg.getUint("k", 0), 32u);
}

TEST_F(ConfigTest, ParseArgsEqualsForm)
{
    const char *argv[] = {"--runtime-ms=500", "--seed=7"};
    auto pos = cfg.parseArgs(2, argv);
    EXPECT_TRUE(pos.empty());
    EXPECT_EQ(cfg.getUint("runtime_ms", 0), 500u);
    EXPECT_EQ(cfg.getUint("seed", 0), 7u);
}

TEST_F(ConfigTest, ParseArgsSpaceForm)
{
    const char *argv[] = {"--ssds", "32", "file.txt"};
    auto pos = cfg.parseArgs(3, argv);
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0], "file.txt");
    EXPECT_EQ(cfg.getUint("ssds", 0), 32u);
}

TEST_F(ConfigTest, ParseArgsBareFlag)
{
    const char *argv[] = {"--csv", "--verbose"};
    cfg.parseArgs(2, argv);
    EXPECT_TRUE(cfg.getBool("csv", false));
    EXPECT_TRUE(cfg.getBool("verbose", false));
}

TEST_F(ConfigTest, DashesNormaliseToUnderscores)
{
    const char *argv[] = {"--smart-period-s=30"};
    cfg.parseArgs(1, argv);
    EXPECT_EQ(cfg.getUint("smart_period_s", 0), 30u);
}

TEST_F(ConfigTest, KeysWithPrefix)
{
    cfg.set("ssd.nand.read_us", "20");
    cfg.set("ssd.nand.prog_us", "600");
    cfg.set("ssd.smart.period_s", "30");
    cfg.set("host.cpus", "40");
    auto keys = cfg.keysWithPrefix("ssd.nand.");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "ssd.nand.prog_us");
    EXPECT_EQ(keys[1], "ssd.nand.read_us");
}

TEST_F(ConfigTest, UnreadKeysAreThoseNoGetterLookedUp)
{
    const char *argv[] = {"--runtime-ms", "20", "--runtim-ms", "5",
                          "--csv", "--seed=3"};
    cfg.parseArgs(6, argv);
    EXPECT_EQ(cfg.unreadKeys(),
              (std::vector<std::string>{"csv", "runtim_ms",
                                        "runtime_ms", "seed"}));
    EXPECT_EQ(cfg.getUint("runtime_ms", 0), 20u);
    EXPECT_TRUE(cfg.getBool("csv", false));
    EXPECT_EQ(cfg.getUint("seed", 0), 3u);
    // Looking up an absent key marks nothing that is set.
    EXPECT_EQ(cfg.getString("absent", "x"), "x");
    EXPECT_EQ(cfg.unreadKeys(), std::vector<std::string>{"runtim_ms"});
    // has() and keysWithPrefix() inspect without reading.
    EXPECT_TRUE(cfg.has("runtim_ms"));
    EXPECT_EQ(cfg.keysWithPrefix("runtim").size(), 2u);
    EXPECT_EQ(cfg.unreadKeys(), std::vector<std::string>{"runtim_ms"});
}

TEST_F(ConfigTest, CountReaderBoundsTheValueAndNamesTheFlag)
{
    EXPECT_EQ(cfg.getCount("ssds", 64, 1, 1024), 64u);
    cfg.set("ssds", "1024");
    EXPECT_EQ(cfg.getCount("ssds", 64, 1, 1024), 1024u);
    for (const char *raw : {"0", "1025", "-5", "4294967297", "2.5", "x",
                            "99999999999999999999"}) {
        cfg.set("ssds", raw);
        EXPECT_EQ(fatalMessage([&] { cfg.getCount("ssds", 64, 1, 1024); }),
                  std::string("fatal: --ssds ") + raw +
                      ": must be an integer in [1, 1024]");
    }
}

TEST_F(ConfigTest, MsecReaderFailsWhereTicksWouldOverflow)
{
    using afa::sim::kMaxTick;
    using afa::sim::kMsec;
    EXPECT_EQ(cfg.getMsec("runtime_ms", 4000), afa::sim::msec(4000));
    const std::uint64_t max_ms = kMaxTick / kMsec;
    cfg.set("runtime_ms", std::to_string(max_ms));
    EXPECT_EQ(cfg.getMsec("runtime_ms", 0), max_ms * kMsec);
    for (const char *raw : {"30000000000000", "18446744073710", "-1",
                            "1.5"}) {
        cfg.set("runtime_ms", raw);
        EXPECT_EQ(fatalMessage([&] { cfg.getMsec("runtime_ms", 0); }),
                  std::string("fatal: --runtime-ms ") + raw +
                      ": must be an integer in [0, 18446744073709]");
    }
}

TEST_F(ConfigTest, RejectUnreadNamesEveryUnusedArgument)
{
    const char *argv[] = {"--runtime-ms", "20", "--runtim-ms", "5",
                          "--rate=9", "extra"};
    cfg.parseArgs(6, argv);
    EXPECT_EQ(cfg.getUint("runtime_ms", 0), 20u);
    EXPECT_EQ(cfg.getUint("rate", 0), 9u);
    try {
        cfg.rejectUnread("prog", {"rate"});
        FAIL() << "unread flags were accepted";
    } catch (const afa::sim::SimError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "prog does not act on --rate, --runtim-ms, "
                      "'extra'"),
                  std::string::npos)
            << e.what();
    }
    // Once every key is read and no positional argument was given,
    // nothing is left to reject.
    Config clean;
    const char *ok_argv[] = {"--seed=3"};
    clean.parseArgs(1, ok_argv);
    EXPECT_EQ(clean.getUint("seed", 0), 3u);
    EXPECT_NO_THROW(clean.rejectUnread("prog"));
}

} // namespace
