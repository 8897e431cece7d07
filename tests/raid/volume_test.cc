/**
 * @file
 * Volume tests: striping address math, fan-out/join semantics (the
 * tail-at-scale property: a client I/O is as slow as its slowest
 * member), parity reconstruction, and capacity arithmetic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "raid/volume.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::raid;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::usec;
using afa::workload::IoRequest;
using afa::workload::IoResult;

namespace {

/** Mock engine with per-device fixed latencies. */
class MockEngine : public afa::workload::IoEngine
{
  public:
    explicit MockEngine(Simulator &simulator) : sim(simulator) {}

    void
    submit(unsigned cpu, const IoRequest &request,
           CompleteFn on_complete) override
    {
        (void)cpu;
        requests.push_back(request);
        Tick latency = usec(20);
        if (request.device < perDeviceLatency.size() &&
            perDeviceLatency[request.device] != 0)
            latency = perDeviceLatency[request.device];
        IoResult result;
        if (request.device < failDevices.size() &&
            failDevices[request.device])
            result.status = afa::nvme::Status::TimedOut;
        sim.scheduleAfter(latency, [fn = std::move(on_complete),
                                    result] { fn(result); });
    }

    std::uint64_t
    deviceBlocks(unsigned device) const override
    {
        return device == 3 ? 1000 : 2048; // device 3 is smaller
    }

    Simulator &sim;
    std::vector<Tick> perDeviceLatency;
    std::vector<bool> failDevices; ///< devices answering with errors
    std::vector<IoRequest> requests;
};

class VolumeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        afa::sim::setThrowOnError(true);
        sim = std::make_unique<Simulator>(9);
        engine = std::make_unique<MockEngine>(*sim);
    }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<MockEngine> engine;
};

TEST_F(VolumeTest, StripeMappingRotatesMembers)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    EXPECT_EQ(vol.mapBlock(0), (std::pair<unsigned, std::uint64_t>{0, 0}));
    EXPECT_EQ(vol.mapBlock(1), (std::pair<unsigned, std::uint64_t>{1, 0}));
    EXPECT_EQ(vol.mapBlock(2), (std::pair<unsigned, std::uint64_t>{2, 0}));
    EXPECT_EQ(vol.mapBlock(3), (std::pair<unsigned, std::uint64_t>{0, 1}));
}

TEST_F(VolumeTest, WideStripsKeepRunsTogether)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 1}, 4);
    EXPECT_EQ(vol.mapBlock(3),
              (std::pair<unsigned, std::uint64_t>{0, 3}));
    EXPECT_EQ(vol.mapBlock(4),
              (std::pair<unsigned, std::uint64_t>{1, 0}));
    EXPECT_EQ(vol.mapBlock(8),
              (std::pair<unsigned, std::uint64_t>{0, 4}));
}

TEST_F(VolumeTest, StripedCapacityIsSumOfSmallest)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 3}, 1);
    // Smallest member (1000 blocks) x 2 members.
    EXPECT_EQ(vol.deviceBlocks(0), 2000u);
}

TEST_F(VolumeTest, LargeIoFansOutAcrossMembers)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 1, 2, 3}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 0;
    req.bytes = 4096 * 8; // 8 blocks over 4 members
    bool done = false;
    vol.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine->requests.size(), 4u); // coalesced per member
    for (const auto &child : engine->requests)
        EXPECT_EQ(child.bytes, 4096u * 2);
    EXPECT_EQ(vol.stats().clientIos, 1u);
    EXPECT_EQ(vol.stats().memberIos, 4u);
}

TEST_F(VolumeTest, ClientCompletesWithSlowestMember)
{
    // The tail-at-scale join: member 2 is 10x slower.
    engine->perDeviceLatency = {usec(20), usec(20), usec(200),
                                usec(20)};
    StripedVolume vol(*sim, "vol", *engine, {0, 1, 2, 3}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 0;
    req.bytes = 4096 * 4;
    Tick done_at = 0;
    vol.submit(0, req, [&](const IoResult &) { done_at = sim->now(); });
    sim->run();
    EXPECT_EQ(done_at, usec(200));
}

TEST_F(VolumeTest, SmallIoTouchesOneMember)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 1, 2, 3}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 5; // member 1, lba 1
    req.bytes = 4096;
    bool done = false;
    vol.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    ASSERT_EQ(engine->requests.size(), 1u);
    EXPECT_EQ(engine->requests[0].device, 1u);
    EXPECT_EQ(engine->requests[0].lba, 1u);
}

TEST_F(VolumeTest, NonZeroDevicePanics)
{
    StripedVolume vol(*sim, "vol", *engine, {0, 1}, 1);
    IoRequest req;
    req.device = 1;
    EXPECT_THROW(vol.submit(0, req, [](const IoResult &) {}),
                 afa::sim::SimError);
    EXPECT_THROW(vol.deviceBlocks(1), afa::sim::SimError);
}

TEST_F(VolumeTest, EmptyMemberListIsFatal)
{
    EXPECT_THROW(StripedVolume(*sim, "vol", *engine, {}, 1),
                 afa::sim::SimError);
    EXPECT_THROW(StripedVolume(*sim, "vol", *engine, {0}, 0),
                 afa::sim::SimError);
}

TEST_F(VolumeTest, ParityMappingRotatesParity)
{
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    // Stripe 0: parity on member 0, data on members 1 and 2.
    auto m0 = vol.mapBlock(0);
    EXPECT_EQ(m0.dataMember, 1u);
    EXPECT_EQ(m0.parityMember, 0u);
    EXPECT_EQ(m0.memberLba, 0u);
    auto m1 = vol.mapBlock(1);
    EXPECT_EQ(m1.dataMember, 2u);
    EXPECT_EQ(m1.parityMember, 0u);
    // Stripe 1: parity rotates to member 1.
    auto m2 = vol.mapBlock(2);
    EXPECT_EQ(m2.dataMember, 0u);
    EXPECT_EQ(m2.parityMember, 1u);
    EXPECT_EQ(m2.memberLba, 1u);
    // Capacity: two data shares of the smallest member.
    ParityVolume small(*sim, "vol2", *engine, {0, 1, 3}, 1);
    EXPECT_EQ(small.deviceBlocks(0), 2000u);
}

TEST_F(VolumeTest, ParityHealthyReadTouchesDataMemberOnly)
{
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 0;
    bool done = false;
    vol.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    ASSERT_EQ(engine->requests.size(), 1u);
    EXPECT_EQ(engine->requests[0].device, 1u);
    EXPECT_EQ(vol.stats().degradedReads, 0u);
}

TEST_F(VolumeTest, ParityDegradedReadReconstructsFromSurvivors)
{
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2, 3}, 1);
    vol.setMemberFailed(1, true);
    IoRequest req;
    req.device = 0;
    req.lba = 0; // data member 1 in stripe 0
    bool done = false;
    vol.submit(0, req, [&](const IoResult &r) {
        done = true;
        EXPECT_TRUE(r.ok());
    });
    sim->run();
    EXPECT_TRUE(done);
    // Reconstruction read every survivor (members 0, 2, 3).
    ASSERT_EQ(engine->requests.size(), 3u);
    for (const auto &child : engine->requests)
        EXPECT_NE(child.device, 1u);
    EXPECT_EQ(vol.stats().degradedReads, 1u);
}

TEST_F(VolumeTest, ParityDegradedReadWaitsForSlowestSurvivor)
{
    engine->perDeviceLatency = {usec(20), usec(20), usec(300),
                                usec(20)};
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2, 3}, 1);
    vol.setMemberFailed(1, true);
    IoRequest req;
    req.device = 0;
    req.lba = 0;
    Tick done_at = 0;
    vol.submit(0, req,
               [&](const IoResult &) { done_at = sim->now(); });
    sim->run();
    EXPECT_EQ(done_at, usec(300));
}

TEST_F(VolumeTest, ParityReadFailsOverOnMemberError)
{
    engine->failDevices = {false, true, false};
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 0; // data member 1
    IoResult seen;
    seen.status = afa::nvme::Status::Aborted;
    vol.submit(0, req, [&](const IoResult &r) { seen = r; });
    sim->run();
    // Direct read errored, then the reconstruction succeeded.
    EXPECT_TRUE(seen.ok());
    EXPECT_TRUE(vol.memberFailed(1));
    EXPECT_EQ(vol.stats().degradedReads, 1u);
}

TEST_F(VolumeTest, ParityWritePaysSmallWritePenalty)
{
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    IoRequest req;
    req.device = 0;
    req.lba = 0;
    req.op = afa::nvme::Op::Write;
    bool done = false;
    vol.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    // Read-modify-write: read old data + parity, write both back.
    ASSERT_EQ(engine->requests.size(), 4u);
    EXPECT_EQ(engine->requests[0].op, afa::nvme::Op::Read);
    EXPECT_EQ(engine->requests[1].op, afa::nvme::Op::Read);
    EXPECT_EQ(engine->requests[2].op, afa::nvme::Op::Write);
    EXPECT_EQ(engine->requests[3].op, afa::nvme::Op::Write);
}

TEST_F(VolumeTest, ParityDegradedWriteUpdatesSurvivorDirectly)
{
    ParityVolume vol(*sim, "vol", *engine, {0, 1, 2}, 1);
    vol.setMemberFailed(0, true); // parity of stripe 0
    IoRequest req;
    req.device = 0;
    req.lba = 0; // data member 1, parity member 0
    req.op = afa::nvme::Op::Write;
    bool done = false;
    vol.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    // Parity lost: the data member absorbs the write, no RMW.
    ASSERT_EQ(engine->requests.size(), 1u);
    EXPECT_EQ(engine->requests[0].device, 1u);
    EXPECT_EQ(engine->requests[0].op, afa::nvme::Op::Write);
}

TEST_F(VolumeTest, ParityNeedsThreeMembers)
{
    EXPECT_THROW(ParityVolume(*sim, "vol", *engine, {0, 1}, 1),
                 afa::sim::SimError);
}

TEST_F(VolumeTest, VolumesCompose)
{
    // RAID-50: a stripe over two RAID-5 sets.
    ParityVolume p0(*sim, "p0", *engine, {0, 1, 2}, 1);
    ParityVolume p1(*sim, "p1", *engine, {4, 5, 6}, 1);
    // A tiny adapter engine exposing the two sets as devices 0/1.
    struct TwoSets : afa::workload::IoEngine
    {
        ParityVolume &a, &b;
        TwoSets(ParityVolume &x, ParityVolume &y) : a(x), b(y) {}
        void
        submit(unsigned cpu, const IoRequest &request,
               CompleteFn fn) override
        {
            IoRequest child = request;
            child.device = 0;
            (request.device == 0 ? a : b)
                .submit(cpu, child, std::move(fn));
        }
        std::uint64_t
        deviceBlocks(unsigned device) const override
        {
            return (device == 0 ? a : b).deviceBlocks(0);
        }
    } pair_engine(p0, p1);
    StripedVolume raid50(*sim, "raid50", pair_engine, {0, 1}, 1);
    EXPECT_EQ(raid50.deviceBlocks(0), 2u * 4096u); // 2 x (2 x 2048)
    IoRequest req;
    req.device = 0;
    req.op = afa::nvme::Op::Write;
    req.bytes = 4096 * 2;
    bool done = false;
    raid50.submit(0, req, [&](const IoResult &) { done = true; });
    sim->run();
    EXPECT_TRUE(done);
    // 2 strips x a small-write read-modify-write of data + parity.
    EXPECT_EQ(engine->requests.size(), 8u);
    EXPECT_EQ(p0.stats().clientIos, 1u);
    EXPECT_EQ(p1.stats().clientIos, 1u);
}

} // namespace
