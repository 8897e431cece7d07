/**
 * @file
 * Differential tests for the fabric transit fast path: the same
 * randomized traffic is driven through a fast-path fabric and a
 * reference fabric forced onto the per-hop event model
 * (setFastPath(false)), and every observable — delivery ticks,
 * fabric-wide stats, per-link stats — must match exactly.
 *
 * Plus regression tests for the send() edge cases (self-send,
 * unreachable destination) under both models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pcie/afa_topology.hh"
#include "pcie/fabric.hh"
#include "pcie/link.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace afa::pcie;
using afa::sim::Rng;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::usec;

namespace {

/** One scripted packet of the differential workload. */
struct SendOp
{
    Tick when;
    NodeId src;
    NodeId dst;
    std::uint32_t bytes;
};

/**
 * Replay @p ops against @p fabric and return the delivery tick of
 * every packet, in op order.
 */
std::vector<Tick>
replay(Simulator &sim, Fabric &fabric, const std::vector<SendOp> &ops)
{
    std::vector<Tick> delivered(ops.size(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const SendOp &op = ops[i];
        sim.scheduleAt(op.when, [&sim, &fabric, &delivered, op, i] {
            fabric.send(op.src, op.dst, op.bytes,
                        [&sim, &delivered, i] {
                            delivered[i] = sim.now();
                        });
        });
    }
    sim.run();
    return delivered;
}

/** Assert fast-path and reference fabrics observed identical traffic. */
void
expectSameObservables(const Fabric &fast, const Fabric &ref)
{
    EXPECT_EQ(fast.stats().packets, ref.stats().packets);
    EXPECT_EQ(fast.stats().bytes, ref.stats().bytes);
    EXPECT_EQ(fast.queueDelay(), ref.queueDelay());
    ASSERT_EQ(fast.linkCount(), ref.linkCount());
    for (std::size_t i = 0; i < fast.linkCount(); ++i) {
        const Link &a = fast.linkAt(i);
        const Link &b = ref.linkAt(i);
        EXPECT_EQ(a.bytesCarried(), b.bytesCarried()) << a.name();
        EXPECT_EQ(a.transfers(), b.transfers()) << a.name();
        EXPECT_EQ(a.busyTime(), b.busyTime()) << a.name();
        EXPECT_EQ(a.queueDelay(), b.queueDelay()) << a.name();
        EXPECT_EQ(a.busyUntil(), b.busyUntil()) << a.name();
    }
}

class FabricFastPathTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(FabricFastPathTest, AfaTopologyRandomTrafficMatchesReference)
{
    // Host<->SSD traffic over the paper's two-level switch tree:
    // bursts force queueing on the shared carrier/leaf/root links,
    // quiet gaps keep a large uncontended share, so both the
    // single-event fast path and the per-hop fallback are exercised.
    AfaTopologyParams params;
    params.ssds = 16;
    Simulator fast_sim(1), ref_sim(1);
    Fabric fast(fast_sim, "fast"), ref(ref_sim, "ref");
    auto fast_topo = buildAfaTopology(fast, params);
    auto ref_topo = buildAfaTopology(ref, params);
    ref.setFastPath(false);

    Rng rng(1234);
    std::vector<SendOp> ops;
    Tick when = 0;
    for (int burst = 0; burst < 200; ++burst) {
        // Alternate dense bursts (heavy uplink contention) with
        // spaced-out singletons (uncontended fast-path deliveries).
        bool dense = rng.uniformInt(0, 1) == 0;
        unsigned count = dense
            ? static_cast<unsigned>(rng.uniformInt(4, 12)) : 1;
        when += dense ? rng.uniformInt(0, 500)
                      : usec(5) + rng.uniformInt(0, 2000);
        for (unsigned p = 0; p < count; ++p) {
            unsigned dev = static_cast<unsigned>(
                rng.uniformInt(0, params.ssds - 1));
            bool up = rng.uniformInt(0, 2) != 0; // mostly data returns
            if (up)
                ops.push_back(SendOp{when, fast_topo.ssds[dev],
                                     fast_topo.host, 4096 + 16});
            else
                ops.push_back(
                    SendOp{when, fast_topo.host, fast_topo.ssds[dev], 64});
        }
    }
    // The two fabrics are built identically, so node ids coincide.
    ASSERT_EQ(fast_topo.host, ref_topo.host);
    ASSERT_EQ(fast_topo.ssds, ref_topo.ssds);

    auto fast_ticks = replay(fast_sim, fast, ops);
    auto ref_ticks = replay(ref_sim, ref, ops);

    ASSERT_EQ(fast_ticks.size(), ref_ticks.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(fast_ticks[i], ref_ticks[i]) << "packet " << i;
    expectSameObservables(fast, ref);

    // The workload must genuinely exercise both delivery models.
    EXPECT_GT(fast.stats().fastPathPackets, 0u);
    EXPECT_GT(fast.stats().fallbackPackets, 0u);
    EXPECT_EQ(ref.stats().fastPathPackets, 0u);
    EXPECT_EQ(ref.stats().fallbackPackets, ref.stats().packets);
    // Contention must actually have occurred, or the equivalence
    // check proves nothing about queue-delay accounting.
    EXPECT_GT(fast.queueDelay(), 0u);
}

TEST_F(FabricFastPathTest, DeepLineTopologyBackToBackMatchesReference)
{
    // A 5-hop line a - s1 - s2 - s3 - s4 - b with back-to-back sends:
    // every packet after the first hits contention at hop 0 or deeper,
    // covering the "fall back mid-path at the first contended link"
    // branch repeatedly.
    auto build = [](Fabric &f, std::vector<NodeId> &nodes) {
        nodes.push_back(f.addEndpoint("a"));
        for (int s = 1; s <= 4; ++s)
            nodes.push_back(
                f.addSwitch(afa::sim::strfmt("s%d", s), 150 * s));
        nodes.push_back(f.addEndpoint("b"));
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
            f.connect(nodes[i], nodes[i + 1],
                      LinkParams{static_cast<unsigned>(1 + i % 4),
                                 40 + 10 * i});
    };
    Simulator fast_sim(1), ref_sim(1);
    Fabric fast(fast_sim, "fast"), ref(ref_sim, "ref");
    std::vector<NodeId> fast_nodes, ref_nodes;
    build(fast, fast_nodes);
    build(ref, ref_nodes);
    fast.finalize();
    ref.finalize();
    ref.setFastPath(false);

    Rng rng(99);
    std::vector<SendOp> ops;
    Tick when = 0;
    for (int i = 0; i < 300; ++i) {
        when += rng.uniformInt(0, 900);
        ops.push_back(SendOp{when, fast_nodes.front(),
                             fast_nodes.back(),
                             static_cast<std::uint32_t>(
                                 rng.uniformInt(64, 8192))});
    }
    auto fast_ticks = replay(fast_sim, fast, ops);
    auto ref_ticks = replay(ref_sim, ref, ops);
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(fast_ticks[i], ref_ticks[i]) << "packet " << i;
    expectSameObservables(fast, ref);
    EXPECT_GT(fast.stats().fastPathPackets, 0u);
    EXPECT_GT(fast.stats().fallbackPackets, 0u);
}

/**
 * Build the reviewer's displacement repro: a - s1 - s2 - b plus
 * c - s2. Source a is two hops from the shared directed link s2->b
 * while c is one hop away, so a packet from c sent *after* one from a
 * reaches the shared link *earlier* — the reference model serves c
 * first, so a's fast-path reservation must be revoked.
 */
struct UnequalPrefixTopo
{
    NodeId a, b, c, s1, s2;
};

UnequalPrefixTopo
buildUnequalPrefixTopo(Fabric &f)
{
    UnequalPrefixTopo t;
    t.a = f.addEndpoint("a");
    t.b = f.addEndpoint("b");
    t.c = f.addEndpoint("c");
    t.s1 = f.addSwitch("s1", 300);
    t.s2 = f.addSwitch("s2", 300);
    f.connect(t.a, t.s1, LinkParams{4, 100});
    f.connect(t.s1, t.s2, LinkParams{4, 100});
    f.connect(t.s2, t.b, LinkParams{4, 100});
    f.connect(t.c, t.s2, LinkParams{4, 100});
    f.finalize();
    return t;
}

TEST_F(FabricFastPathTest, EarlierEntrantDisplacesFastPathReservation)
{
    // a->b is sent first and fast-paths, reserving s2->b at a future
    // entry tick; c->b is sent later but reaches s2->b first, and its
    // serialization runs past a's reserved start, so a's delivery
    // must be pushed back — exactly as the per-hop reference model
    // computes it.
    Simulator fast_sim(1), ref_sim(1);
    Fabric fast(fast_sim, "fast"), ref(ref_sim, "ref");
    auto ft = buildUnequalPrefixTopo(fast);
    auto rt = buildUnequalPrefixTopo(ref);
    ref.setFastPath(false);
    std::vector<SendOp> ops{
        SendOp{0, ft.a, ft.b, 4096},
        SendOp{101, ft.c, ft.b, 8192},
    };
    ASSERT_EQ(ft.b, rt.b);

    auto fast_ticks = replay(fast_sim, fast, ops);
    auto ref_ticks = replay(ref_sim, ref, ops);

    ASSERT_EQ(fast_ticks.size(), ref_ticks.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(fast_ticks[i], ref_ticks[i]) << "packet " << i;
    expectSameObservables(fast, ref);
    // c (sent later) must be delivered first, and a must have been
    // queued behind it at the shared link.
    EXPECT_LT(fast_ticks[1], fast_ticks[0]);
    EXPECT_GT(fast.queueDelay(), 0u);
    // a was displaced off the fast path: both packets end up
    // accounted as fallback deliveries.
    EXPECT_EQ(fast.stats().fastPathPackets, 0u);
    EXPECT_EQ(fast.stats().fallbackPackets, 2u);
}

TEST_F(FabricFastPathTest, UnequalPrefixRandomTrafficMatchesReference)
{
    // Randomized mixed-size bidirectional traffic over the asymmetric
    // topology: sources at unequal distances keep racing for the
    // shared s2->b and s2->s1 links, so fast-path reservations are
    // repeatedly displaced (including cascades where a displaced
    // packet's own reservations had traffic queued behind them).
    Simulator fast_sim(1), ref_sim(1);
    Fabric fast(fast_sim, "fast"), ref(ref_sim, "ref");
    auto ft = buildUnequalPrefixTopo(fast);
    auto rt = buildUnequalPrefixTopo(ref);
    ref.setFastPath(false);
    ASSERT_EQ(ft.b, rt.b);

    Rng rng(4242);
    std::vector<SendOp> ops;
    const NodeId eps[3] = {ft.a, ft.b, ft.c};
    Tick when = 0;
    for (int i = 0; i < 400; ++i) {
        when += rng.uniformInt(0, 2500);
        NodeId src = eps[rng.uniformInt(0, 2)];
        NodeId dst = eps[rng.uniformInt(0, 2)];
        if (src == dst)
            dst = eps[(rng.uniformInt(0, 2) + 1) % 3];
        if (src == dst)
            continue;
        ops.push_back(SendOp{when, src, dst,
                             static_cast<std::uint32_t>(
                                 rng.uniformInt(64, 8192))});
    }
    auto fast_ticks = replay(fast_sim, fast, ops);
    auto ref_ticks = replay(ref_sim, ref, ops);
    ASSERT_EQ(fast_ticks.size(), ref_ticks.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(fast_ticks[i], ref_ticks[i]) << "packet " << i;
    expectSameObservables(fast, ref);
    EXPECT_GT(fast.stats().fastPathPackets, 0u);
    EXPECT_GT(fast.stats().fallbackPackets, 0u);
    EXPECT_GT(fast.queueDelay(), 0u);
}

TEST_F(FabricFastPathTest, SameTickDeliveryCascadeMatchesReference)
{
    // Two equal-latency disjoint first legs (a->b and c->d) deliver
    // at the same tick; each delivery callback immediately issues a
    // follow-on send into a shared uplink (b->sw->e, d->sw->e). The
    // follow-ons' FIFO slots on sw->e are decided by same-tick
    // callback order, so this pins that collapsing deliveries into
    // single send-time events preserves the reference cascade when
    // same-tick deliveries were sent in entry order (the equal-prefix
    // property all real traffic has; see DESIGN.md "Same-tick
    // ordering").
    auto build = [](Fabric &f, std::vector<NodeId> &n) {
        NodeId a = f.addEndpoint("a");
        NodeId b = f.addEndpoint("b");
        NodeId c = f.addEndpoint("c");
        NodeId d = f.addEndpoint("d");
        NodeId e = f.addEndpoint("e");
        NodeId sw = f.addSwitch("sw", 300);
        f.connect(a, b, LinkParams{4, 100});
        f.connect(c, d, LinkParams{4, 100});
        f.connect(b, sw, LinkParams{4, 100});
        f.connect(d, sw, LinkParams{4, 100});
        f.connect(sw, e, LinkParams{16, 100});
        f.finalize();
        n = {a, b, c, d, e, sw};
    };
    auto run = [&](bool fast_path, std::vector<Tick> &ticks) {
        Simulator sim(1);
        Fabric f(sim, "f");
        std::vector<NodeId> n;
        build(f, n);
        f.setFastPath(fast_path);
        ticks.assign(4, 0);
        f.send(n[0], n[1], 64, [&] {
            ticks[0] = sim.now();
            f.send(n[1], n[4], 4096, [&] { ticks[2] = sim.now(); });
        });
        f.send(n[2], n[3], 64, [&] {
            ticks[1] = sim.now();
            f.send(n[3], n[4], 4096, [&] { ticks[3] = sim.now(); });
        });
        sim.run();
    };
    std::vector<Tick> fast_ticks, ref_ticks;
    run(true, fast_ticks);
    run(false, ref_ticks);
    EXPECT_EQ(fast_ticks, ref_ticks);
    // The first legs really did deliver at the same tick, and the
    // follow-ons really did contend: their gap is the shared uplink
    // serialization.
    EXPECT_EQ(fast_ticks[0], fast_ticks[1]);
    EXPECT_GT(fast_ticks[3], fast_ticks[2]);
}

TEST_F(FabricFastPathTest, HostDeliveryTiesWithPlainEventInPostOrder)
{
    // The same-tick caveat of DESIGN.md §9, pinned both ways. A
    // delivery runs in post order with every other event of its
    // tick. The fast path posts it at send time, the per-hop model at
    // its last hop. So a plain event posted right after the send, for
    // the delivery tick, runs after the delivery under the fast path
    // and before it under the per-hop model. A change that orders
    // deliveries apart from other events of their tick flips the
    // fast-path side of this test.
    for (bool fast_path : {true, false}) {
        Simulator sim(1);
        Fabric f(sim, "f");
        NodeId dev = f.addEndpoint("dev");
        NodeId sw = f.addSwitch("sw", 300);
        NodeId host = f.addEndpoint("host");
        f.connect(dev, sw, LinkParams{4, 100});
        f.connect(sw, host, LinkParams{16, 100});
        f.finalize();
        f.setFastPath(fast_path);
        ASSERT_EQ(f.hopCount(dev, host), 2u);
        const Tick due = f.unloadedLatency(dev, host, 4096);
        std::string order;
        Tick delivered = 0;
        f.send(dev, host, 4096, [&] {
            order += "delivery ";
            delivered = sim.now();
        });
        sim.scheduleAt(due, [&] { order += "plain "; });
        sim.run();
        EXPECT_EQ(delivered, due);
        EXPECT_EQ(order, fast_path ? "delivery plain " : "plain delivery ")
            << (fast_path ? "fast path" : "per-hop model");
    }
}

TEST_F(FabricFastPathTest, DisplacedWalkLosesSameTickTieToChainPacket)
{
    // A known defect of the fast path, pinned as it stands (DESIGN.md
    // §9, "Same-tick ordering caveat"). Packet 0 walks its route to
    // the host. Packet 1 falls back at root->host and displaces
    // packet 0's reservation there, so packet 0 re-enters that link
    // by an event posted at the displacement, tick 3208. Packet 2 is
    // a chain packet whose root->host hop was posted at 3047. Both
    // enter root->host at the same tick, and packet 2 goes first
    // because its event was posted first. The per-hop reference
    // posts packet 0's hop when packet 0 enters the previous link,
    // at 2727, so there packet 0 goes first. A fix must make the
    // fast fabric deliver the reference ticks: turn this test into
    // an equality check against the setFastPath(false) fabric.
    auto deliveries = [](bool fast_path) {
        Simulator sim(1);
        Fabric f(sim, "f");
        const AfaTopology topo = buildAfaTopology(f, AfaTopologyParams{});
        f.setFastPath(fast_path);
        const std::vector<SendOp> ops{
            SendOp{0, topo.ssds[0], topo.host, 4096 + 16},
            SendOp{2000, topo.ssds[12], topo.host, 16},
            SendOp{2240, topo.ssds[24], topo.host, 16},
        };
        return replay(sim, f, ops);
    };
    EXPECT_EQ(deliveries(false), (std::vector<Tick>{3869, 3309, 3870}));
    EXPECT_EQ(deliveries(true), (std::vector<Tick>{3870, 3309, 3549}));
}

TEST_F(FabricFastPathTest, MidPathContentionFallsBackAtSharedUplink)
{
    // Two devices with private first links funnel into one shared
    // uplink. Simultaneous sends are both uncontended at hop 0, so the
    // second packet must fall back mid-path (at the shared link), and
    // the delivery gap must equal the uplink serialization — the same
    // contract FabricTest.SharedUplinkContentionDelaysSecondFlow pins
    // for the per-hop model.
    Simulator sim(1);
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
    EXPECT_EQ(f.stats().fastPathPackets, 1u);
    EXPECT_EQ(f.stats().fallbackPackets, 1u);
    EXPECT_GT(f.queueDelay(), 0u);
}

TEST_F(FabricFastPathTest, ResendFromDeliveryReusesTheRecord)
{
    // A packet's record is freed before its delivery callback runs,
    // so a callback that sends again on the same route takes the
    // freed record back instead of growing the pool: a lone resend
    // loop holds one record, a fast-path walk and a chain packet
    // alike. With a contender from d0, d1's first packet falls back
    // mid-path (a chain packet under the fast path too) and the loop
    // holds two. Delivery ticks match the per-hop reference.
    struct Observed
    {
        std::vector<Tick> ticks;
        std::size_t records = 0;
        std::uint64_t fallbacks = 0;
    };
    auto run = [](bool fast_path, bool contender) {
        Simulator sim(1);
        Fabric f(sim, "f");
        NodeId host = f.addEndpoint("host");
        NodeId sw = f.addSwitch("sw", 300);
        NodeId d0 = f.addEndpoint("d0");
        NodeId d1 = f.addEndpoint("d1");
        f.connect(host, sw, LinkParams{16, 100});
        f.connect(sw, d0, LinkParams{4, 100});
        f.connect(sw, d1, LinkParams{4, 100});
        f.finalize();
        f.setFastPath(fast_path);
        Observed seen;
        std::function<void()> resend = [&] {
            seen.ticks.push_back(sim.now());
            if (seen.ticks.size() < 6)
                f.send(d1, host, 4096, [&resend] { resend(); });
        };
        if (contender)
            f.send(d0, host, 4096, [] {});
        f.send(d1, host, 4096, [&resend] { resend(); });
        sim.run();
        seen.records = f.packetRecords();
        seen.fallbacks = f.stats().fallbackPackets;
        return seen;
    };
    for (bool contender : {false, true}) {
        const Observed fast = run(true, contender);
        const Observed ref = run(false, contender);
        ASSERT_EQ(fast.ticks.size(), 6u);
        EXPECT_EQ(fast.ticks, ref.ticks);
        const std::size_t records = contender ? 2 : 1;
        EXPECT_EQ(fast.records, records) << "contender " << contender;
        EXPECT_EQ(ref.records, records) << "contender " << contender;
        EXPECT_EQ(fast.fallbacks, contender ? 1u : 0u);
    }
}

TEST_F(FabricFastPathTest, UncontendedSendMatchesUnloadedLatency)
{
    Simulator sim(1);
    Fabric f(sim, "f");
    auto topo = buildAfaTopology(f, AfaTopologyParams{});
    Tick delivered = 0;
    f.send(topo.ssds[5], topo.host, 4096, [&] { delivered = sim.now(); });
    std::uint64_t events = sim.run();
    EXPECT_EQ(delivered, f.unloadedLatency(topo.ssds[5], topo.host, 4096));
    // The whole 4-hop transfer must cost exactly one delivery event.
    EXPECT_EQ(events, 1u);
    EXPECT_EQ(f.stats().fastPathPackets, 1u);
    EXPECT_EQ(f.queueDelay(), 0u);
}

TEST_F(FabricFastPathTest, SelfSendDeliversAtCurrentTickBothModels)
{
    for (bool enable_fast : {true, false}) {
        Simulator sim(1);
        Fabric f(sim, "f");
        NodeId a = f.addEndpoint("a");
        NodeId b = f.addEndpoint("b");
        f.connect(a, b, LinkParams{4, 100});
        f.finalize();
        f.setFastPath(enable_fast);
        Tick delivered = afa::sim::kMaxTick;
        sim.scheduleAt(usec(3), [&] {
            f.send(a, a, 64, [&] { delivered = sim.now(); });
        });
        sim.run();
        EXPECT_EQ(delivered, usec(3));
        EXPECT_EQ(f.stats().packets, 1u);
        EXPECT_EQ(f.stats().fastPathPackets, 0u);
        EXPECT_EQ(f.stats().fallbackPackets, 0u);
    }
}

TEST_F(FabricFastPathTest, UnreachableDestinationIsFatalBothModels)
{
    for (bool enable_fast : {true, false}) {
        Simulator sim(1);
        Fabric f(sim, "f");
        NodeId a = f.addEndpoint("a");
        NodeId b = f.addEndpoint("b");
        NodeId island = f.addEndpoint("island");
        f.connect(a, b, LinkParams{4, 100});
        f.finalize();
        f.setFastPath(enable_fast);
        EXPECT_THROW(f.send(a, island, 64, [] {}),
                     afa::sim::SimError);
        EXPECT_THROW(f.unloadedLatency(a, island, 64),
                     afa::sim::SimError);
        EXPECT_EQ(f.hopCount(a, island), 0u);
    }
}

} // namespace
