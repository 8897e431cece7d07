/**
 * @file
 * FIO job parsing tests: the paper's workload line, size/duration
 * suffixes, the keys the run sets itself, and error handling.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"
#include "workload/fio_job.hh"

using namespace afa::workload;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

/** The fatal() message parsing @p spec fails with ("" if none). */
std::string
parseError(const std::string &spec)
{
    try {
        FioJob::parse(spec);
    } catch (const afa::sim::SimError &e) {
        return e.message;
    }
    return "";
}

class FioJobTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(FioJobTest, Defaults)
{
    FioJob job;
    EXPECT_EQ(job.rw, RwMode::RandRead);
    EXPECT_EQ(job.blockSize, 4096u);
    EXPECT_EQ(job.ioDepth, 1u);
    EXPECT_EQ(job.runtime, sec(120));
}

TEST_F(FioJobTest, PaperWorkloadLine)
{
    // The Section III-B workload's per-IO keys (direct/ioengine and
    // numjobs=1 accepted, ignored).
    FioJob job = FioJob::parse(
        "rw=randread bs=4k iodepth=1 direct=1 ioengine=libaio "
        "numjobs=1");
    EXPECT_EQ(job.rw, RwMode::RandRead);
    EXPECT_EQ(job.blockSize, 4096u);
    EXPECT_EQ(job.ioDepth, 1u);
}

TEST_F(FioJobTest, CommaSeparatedForm)
{
    FioJob job = FioJob::parse("rw=read,bs=128k,iodepth=8");
    EXPECT_EQ(job.rw, RwMode::Read);
    EXPECT_EQ(job.blockSize, 128u * 1024);
    EXPECT_EQ(job.ioDepth, 8u);
}

TEST_F(FioJobTest, SizeSuffixes)
{
    EXPECT_EQ(FioJob::parse("bs=8k").blockSize, 8192u);
    EXPECT_EQ(FioJob::parse("bs=1m").blockSize, 1048576u);
    EXPECT_EQ(FioJob::parse("bs=4096").blockSize, 4096u);
}

TEST_F(FioJobTest, DurationSuffixes)
{
    EXPECT_EQ(FioJob::parse("thinktime=500ms").thinkTime, msec(500));
    EXPECT_EQ(FioJob::parse("thinktime=30s").thinkTime, sec(30));
    EXPECT_EQ(FioJob::parse("thinktime=2m").thinkTime, sec(120));
    EXPECT_EQ(FioJob::parse("thinktime=250us").thinkTime, usec(250));
    EXPECT_EQ(FioJob::parse("thinktime=7").thinkTime, sec(7));
}

TEST_F(FioJobTest, CpusAllowed)
{
    // The run pins each thread (Fig. 5 placement): the key is
    // unknown, and the field keeps its unpinned default.
    EXPECT_EQ(FioJob::parse("bs=4k").cpusAllowed, afa::host::kAllCpus);
    EXPECT_EQ(parseError("cpus_allowed=4-5,24"),
              "fatal: fio: unknown option 'cpus_allowed'");
}

TEST_F(FioJobTest, OffsetAndSizeInBlocks)
{
    FioJob job = FioJob::parse("offset=1m size=8m");
    EXPECT_EQ(job.offsetBlocks, 256u);
    EXPECT_EQ(job.sizeBlocks, 2048u);
}

TEST_F(FioJobTest, RwModes)
{
    EXPECT_EQ(parseRwMode("read"), RwMode::Read);
    EXPECT_EQ(parseRwMode("write"), RwMode::Write);
    EXPECT_EQ(parseRwMode("randread"), RwMode::RandRead);
    EXPECT_EQ(parseRwMode("randwrite"), RwMode::RandWrite);
    EXPECT_EQ(parseRwMode("randrw"), RwMode::RandRw);
    EXPECT_STREQ(rwModeName(RwMode::RandRead), "randread");
}

TEST_F(FioJobTest, Errors)
{
    EXPECT_THROW(FioJob::parse("rw=bogus"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("bs=1000"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("bs=0"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("iodepth=0"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("thinktime=5lightyears"),
                 afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("rwmixread=150"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("unknown_key=1"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("notkeyvalue"), afa::sim::SimError);
    // Keys the run sets itself (--runtime-ms, the tuning profile's
    // polling), and more than the one thread per device.
    for (std::string key : {"name", "runtime", "polling", "hipri"})
        EXPECT_EQ(parseError(key + "=1"),
                  "fatal: fio: unknown option '" + key + "'");
    EXPECT_EQ(parseError("numjobs=2"),
              "fatal: fio: unknown option 'numjobs'");
}

TEST_F(FioJobTest, OutOfRangeSizesFailNamingTheKey)
{
    // Each value would wrap when narrowed to its field (or, signed,
    // wrap inside stoull) instead of failing.
    EXPECT_EQ(parseError("iodepth=4294967297"),
              "fatal: fio: iodepth must be in [1, 65536], got "
              "'4294967297'");
    EXPECT_EQ(parseError("iodepth=65537"),
              "fatal: fio: iodepth must be in [1, 65536], got '65537'");
    EXPECT_EQ(parseError("iodepth=-1"),
              "fatal: fio: bad size '-1' for iodepth");
    EXPECT_EQ(parseError("bs=4294971392"),
              "fatal: fio: bs '4294971392' exceeds a command's 32-bit "
              "byte count");
    EXPECT_EQ(parseError("rwmixread=4294967396"),
              "fatal: fio: rwmixread must be 0..100, got '4294967396'");
    EXPECT_EQ(parseError("size=17179869184g"),
              "fatal: fio: size '17179869184g' for size overflows 64 "
              "bits");
    EXPECT_EQ(parseError("offset=+4k"),
              "fatal: fio: bad size '+4k' for offset");
    // The ceilings themselves are accepted.
    EXPECT_EQ(FioJob::parse("iodepth=64k").ioDepth, kMaxIoDepth);
    EXPECT_EQ(FioJob::parse("bs=4194300k").blockSize, 4294963200u);
}

TEST_F(FioJobTest, RtPriority)
{
    // The tuning profile sets chrt: the key is unknown, and the field
    // keeps its CFS default.
    EXPECT_EQ(FioJob::parse("bs=4k").rtPriority, 0);
    EXPECT_EQ(parseError("rtprio=99"),
              "fatal: fio: unknown option 'rtprio'");
}

} // namespace
