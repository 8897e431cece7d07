/**
 * @file
 * Tests for PCIe links, the switch fabric, and the AFA topology:
 * serialization timing, FIFO contention, routing, and the paper's
 * ~5 us fabric adder anchor.
 */

#include <gtest/gtest.h>

#include "pcie/afa_topology.hh"
#include "pcie/fabric.hh"
#include "pcie/link.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace afa::pcie;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::usec;

namespace {

class LinkTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(LinkTest, SerializationScalesWithBytesAndLanes)
{
    Link x4("x4", LinkParams{4, 0});
    Link x16("x16", LinkParams{16, 0});
    // x16 carries the same payload 4x faster.
    EXPECT_NEAR(static_cast<double>(x4.serialization(afa::sim::Bytes{4096})),
                4.0 * static_cast<double>(x16.serialization(afa::sim::Bytes{4096})),
                2.0);
    // 4 KiB on x4 Gen3 (~3.2 GB/s effective) ~ 1.28 us.
    EXPECT_NEAR(afa::sim::toUsec(x4.serialization(afa::sim::Bytes{4096})), 1.28, 0.05);
}

TEST_F(LinkTest, TransfersQueueFifo)
{
    Link l("l", LinkParams{4, 100});
    Tick ser = l.serialization(afa::sim::Bytes{4096});
    Tick first = l.transfer(0, afa::sim::Bytes{4096});
    EXPECT_EQ(first, ser + 100);
    // Second transfer issued at t=0 queues behind the first.
    Tick second = l.transfer(0, afa::sim::Bytes{4096});
    EXPECT_EQ(second, 2 * ser + 100);
    EXPECT_EQ(l.queueDelay(), ser);
    EXPECT_EQ(l.bytesCarried(), 8192u);
    EXPECT_EQ(l.transfers(), 2u);
}

TEST_F(LinkTest, IdleLinkDoesNotQueue)
{
    Link l("l", LinkParams{4, 100});
    l.transfer(0, afa::sim::Bytes{4096});
    Tick later = l.busyUntil() + usec(5);
    Tick arrive = l.transfer(later, afa::sim::Bytes{4096});
    EXPECT_EQ(arrive, later + l.serialization(afa::sim::Bytes{4096}) + 100);
    EXPECT_EQ(l.queueDelay(), 0u);
}

TEST_F(LinkTest, InvalidLanesFatal)
{
    EXPECT_THROW(Link("bad", LinkParams{0, 0}),
                 afa::sim::SimError);
    EXPECT_THROW(Link("bad", LinkParams{32, 0}),
                 afa::sim::SimError);
}

class FabricTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Simulator sim{1};
};

TEST_F(FabricTest, DirectDelivery)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    f.connect(a, b, LinkParams{4, 100});
    f.finalize();
    Tick delivered = 0;
    f.send(a, b, 4096, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(delivered, f.unloadedLatency(a, b, 4096));
}

TEST_F(FabricTest, RoutesThroughSwitches)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId s1 = f.addSwitch("s1", 300);
    NodeId s2 = f.addSwitch("s2", 300);
    NodeId b = f.addEndpoint("b");
    f.connect(a, s1, LinkParams{16, 100});
    f.connect(s1, s2, LinkParams{16, 100});
    f.connect(s2, b, LinkParams{4, 100});
    f.finalize();
    EXPECT_EQ(f.hopCount(a, b), 3u);
    Tick delivered = 0;
    f.send(a, b, 4096, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_EQ(delivered, f.unloadedLatency(a, b, 4096));
    // Store-and-forward: both switch forward latencies included.
    Tick expect = 0;
    expect += f.linkBetween(a, s1)->serialization(afa::sim::Bytes{4096}) + 100 + 300;
    expect += f.linkBetween(s1, s2)->serialization(afa::sim::Bytes{4096}) + 100 + 300;
    expect += f.linkBetween(s2, b)->serialization(afa::sim::Bytes{4096}) + 100;
    EXPECT_EQ(delivered, expect);
}

TEST_F(FabricTest, SendToSelfIsImmediate)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    f.connect(a, b, LinkParams{4, 100});
    f.finalize();
    bool delivered = false;
    f.send(a, a, 64, [&] { delivered = true; });
    sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(sim.now(), 0u);
}

TEST_F(FabricTest, SendBeforeFinalizeIsFatal)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    f.connect(a, b, LinkParams{4, 100});
    EXPECT_THROW(f.send(a, b, 64, [] {}), afa::sim::SimError);
}

TEST_F(FabricTest, DisconnectedRouteIsFatal)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    (void)b;
    NodeId c = f.addEndpoint("c");
    f.connect(a, b, LinkParams{4, 100});
    f.finalize();
    EXPECT_THROW(f.send(a, c, 64, [] {}), afa::sim::SimError);
}

TEST_F(FabricTest, SelfLinkIsFatal)
{
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    EXPECT_THROW(f.connect(a, a, LinkParams{4, 100}),
                 afa::sim::SimError);
}

TEST_F(FabricTest, SharedUplinkContentionDelaysSecondFlow)
{
    // Two endpoints funnel through one switch and one uplink; two
    // simultaneous 4 KiB returns must serialise on the shared link.
    Fabric f(sim, "f");
    NodeId host = f.addEndpoint("host");
    NodeId sw = f.addSwitch("sw", 300);
    NodeId d0 = f.addEndpoint("d0");
    NodeId d1 = f.addEndpoint("d1");
    f.connect(host, sw, LinkParams{16, 100});
    f.connect(sw, d0, LinkParams{4, 100});
    f.connect(sw, d1, LinkParams{4, 100});
    f.finalize();
    std::vector<Tick> arrivals;
    f.send(d0, host, 4096, [&] { arrivals.push_back(sim.now()); });
    f.send(d1, host, 4096, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    const Link *up = f.linkBetween(sw, host);
    EXPECT_EQ(arrivals[1] - arrivals[0], up->serialization(afa::sim::Bytes{4096}));
    EXPECT_GT(f.queueDelay(), 0u);
}

TEST_F(FabricTest, IdleEndpointSendIsOneCountedEvent)
{
    // The fast-path delivery to an endpoint is one counted event that
    // also drops the flight's reservations: no plumbing event rides
    // along.
    Fabric f(sim, "afa");
    AfaTopology topo = buildAfaTopology(f, AfaTopologyParams{});
    Tick delivered = 0;
    f.send(topo.host, topo.ssds[2], 64, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_EQ(delivered, f.unloadedLatency(topo.host, topo.ssds[2], 64));
    EXPECT_EQ(f.stats().fastPathPackets, 1u);
    EXPECT_EQ(sim.executedEvents(), 1u);
    EXPECT_EQ(sim.plumbingEvents(), 0u);
}

TEST_F(FabricTest, QueuedEndpointSendPlumbsOnlyItsHops)
{
    // A send queued behind a busy host uplink walks the per-hop chain.
    // Its delivery is one counted event that also drops the chain
    // mark, so its only plumbing events are its hop continuations.
    Fabric f(sim, "afa");
    AfaTopology topo = buildAfaTopology(f, AfaTopologyParams{});
    f.send(topo.host, topo.ssds[0], 4096, [] {});
    bool delivered = false;
    f.send(topo.host, topo.ssds[1], 64, [&] { delivered = true; });
    sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(f.stats().fastPathPackets, 1u);
    EXPECT_EQ(f.stats().fallbackPackets, 1u);
    EXPECT_EQ(sim.executedEvents(), 2u);
    EXPECT_EQ(sim.plumbingEvents(),
              f.hopCount(topo.host, topo.ssds[1]) - 1);
}

class AfaTopologyTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Simulator sim{1};
};

TEST_F(AfaTopologyTest, DefaultShape)
{
    Fabric f(sim, "afa");
    auto topo = buildAfaTopology(f, AfaTopologyParams{});
    EXPECT_EQ(topo.ssds.size(), 64u);
    EXPECT_EQ(topo.carrierSwitches.size(), 16u); // 64 / 4 per carrier
    EXPECT_EQ(topo.leafSwitches.size(), 6u);     // ceil(16 / 3)
    // host + root + 6 leaves + 16 carriers + 64 ssds
    EXPECT_EQ(f.nodes(), 1u + 1u + 6u + 16u + 64u);
    // Every SSD is 4 hops from the host: uplink, leaf, carrier, M.2.
    for (NodeId ssd : topo.ssds)
        EXPECT_EQ(f.hopCount(topo.host, ssd), 4u);
}

TEST_F(AfaTopologyTest, FabricAdderNearFiveMicroseconds)
{
    // The paper: a read through the switch fabric costs ~5 us more
    // than direct attach. Check the unloaded round trip of a 64 B
    // command down plus 4 KiB + CQE up.
    Fabric f(sim, "afa");
    auto topo = buildAfaTopology(f, AfaTopologyParams{});
    Tick down = f.unloadedLatency(topo.host, topo.ssds[0], 64);
    Tick up = f.unloadedLatency(topo.ssds[0], topo.host, 4096 + 16);
    double rtt_us = afa::sim::toUsec(down + up);
    EXPECT_GT(rtt_us, 3.5);
    EXPECT_LT(rtt_us, 7.0);
}

TEST_F(AfaTopologyTest, SmallConfigurations)
{
    Fabric f(sim, "afa");
    AfaTopologyParams p;
    p.ssds = 5; // partial carrier
    auto topo = buildAfaTopology(f, p);
    EXPECT_EQ(topo.ssds.size(), 5u);
    EXPECT_EQ(topo.carrierSwitches.size(), 2u);
    EXPECT_EQ(topo.leafSwitches.size(), 1u);
    for (NodeId ssd : topo.ssds)
        EXPECT_EQ(f.hopCount(topo.host, ssd), 4u);
}

TEST_F(AfaTopologyTest, ZeroSsdsIsFatal)
{
    Fabric f(sim, "afa");
    AfaTopologyParams p;
    p.ssds = 0;
    EXPECT_THROW(buildAfaTopology(f, p), afa::sim::SimError);
}

TEST_F(AfaTopologyTest, MoreSsdsThanTheFabricHoldsIsFatal)
{
    Fabric f(sim, "afa");
    AfaTopologyParams p;
    p.ssds = kMaxAfaSsds + 1;
    EXPECT_THROW(buildAfaTopology(f, p), afa::sim::SimError);
    EXPECT_EQ(f.nodes(), 0u); // refused before building anything
}

TEST_F(AfaTopologyTest, NodeNamesAreMeaningful)
{
    Fabric f(sim, "afa");
    auto topo = buildAfaTopology(f, AfaTopologyParams{});
    EXPECT_EQ(f.nodeName(topo.host), "host");
    EXPECT_EQ(f.nodeName(topo.ssds[17]), "nvme17");
    EXPECT_EQ(f.nodeName(topo.rootSwitch), "sw.root");
}

} // namespace
