#include "pcie/fabric.hh"

#include <cassert>
#include <deque>
#include <limits>

#include "obs/span_log.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace afa::pcie {

using afa::sim::EventFn;
using afa::sim::Simulator;

Fabric::Fabric(Simulator &simulator, std::string fabric_name)
    : SimObject(simulator, std::move(fabric_name)), isFinalized(false)
{
}

NodeId
Fabric::addEndpoint(const std::string &node_name)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot add nodes after finalize()",
                        name().c_str());
    nodeInfo.push_back(NodeInfo{node_name, false, 0, {}});
    return static_cast<NodeId>(nodeInfo.size() - 1);
}

NodeId
Fabric::addSwitch(const std::string &node_name, Tick forward_latency)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot add nodes after finalize()",
                        name().c_str());
    nodeInfo.push_back(NodeInfo{node_name, true, forward_latency, {}});
    return static_cast<NodeId>(nodeInfo.size() - 1);
}

void
Fabric::checkNode(NodeId id) const
{
    if (id >= nodeInfo.size())
        afa::sim::panic("fabric %s: bad node id %u", name().c_str(), id);
}

void
Fabric::fatalNoRoute(NodeId at_node, NodeId dst) const
{
    afa::sim::fatal("fabric %s: no route %s -> %s", name().c_str(),
                    nodeInfo[at_node].name.c_str(),
                    nodeInfo[dst].name.c_str());
}

void
Fabric::connect(NodeId a, NodeId b, const LinkParams &params)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot connect after finalize()",
                        name().c_str());
    checkNode(a);
    checkNode(b);
    if (a == b)
        afa::sim::fatal("fabric %s: self-link on node %u",
                        name().c_str(), a);
    links.emplace_back(nodeInfo[a].name + "->" + nodeInfo[b].name,
                       params);
    nodeInfo[a].out.emplace_back(b, links.size() - 1);
    links.emplace_back(nodeInfo[b].name + "->" + nodeInfo[a].name,
                       params);
    nodeInfo[b].out.emplace_back(a, links.size() - 1);
}

void
Fabric::finalize()
{
    const std::size_t n = nodeInfo.size();
    nextHopFlat.assign(n * n, kInvalidNode);
    // BFS from every destination, recording each node's parent-ward
    // neighbour (first hop toward dst).
    for (NodeId dst = 0; dst < n; ++dst) {
        std::vector<NodeId> toward(n, kInvalidNode);
        std::deque<NodeId> queue{dst};
        std::vector<bool> seen(n, false);
        seen[dst] = true;
        while (!queue.empty()) {
            NodeId cur = queue.front();
            queue.pop_front();
            for (const auto &[nbr, li] : nodeInfo[cur].out) {
                (void)li;
                if (seen[nbr])
                    continue;
                seen[nbr] = true;
                toward[nbr] = cur;
                queue.push_back(nbr);
            }
        }
        for (NodeId src = 0; src < n; ++src)
            nextHopFlat[pathIndex(src, dst)] = toward[src];
    }
    // Precompile every route into packed hop records, so send() never
    // walks adjacency lists or the next-hop table per packet.
    pathHops.clear();
    pathOffset.assign(n * n + 1, 0);
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (src != dst) {
                NodeId at_node = src;
                while (at_node != dst) {
                    NodeId next = nextHopFlat[pathIndex(at_node, dst)];
                    if (next == kInvalidNode)
                        break; // unreachable: leave the route empty
                    Tick fwd = next == dst
                        ? 0 : nodeInfo[next].forwardLatency;
                    pathHops.push_back(PathHop{
                        static_cast<std::uint32_t>(
                            linkIndex(at_node, next)),
                        next, fwd});
                    at_node = next;
                }
            }
            if (pathHops.size() >
                std::numeric_limits<std::uint32_t>::max())
                afa::sim::fatal("fabric %s: %zu route hops overflow "
                                "the 32-bit route offsets",
                                name().c_str(), pathHops.size());
            pathOffset[pathIndex(src, dst) + 1] =
                static_cast<std::uint32_t>(pathHops.size());
        }
    }
    linkResv.assign(links.size(), {});
    linkFaultRate.assign(links.size(), 0.0);
    faultedLinks = 0;
    isFinalized = true;
}

void
Fabric::setLinkFaultRate(std::size_t link_idx, double rate)
{
    double &cur = linkFaultRate[link_idx];
    if (cur == 0.0 && rate > 0.0) {
        ++faultedLinks;
        // Each faulted link draws its replay coin flips from its own
        // stream, forked by link index from the FaultEngine's
        // plan-seeded stream. Per-link streams (rather than one
        // shared stream) make the flips a function of each link's own
        // packet order instead of the global interleaving of hop
        // events. Re-arming a link restarts its stream; that too is
        // a pure function of the plan.
        if (linkFaultStream.size() < links.size())
            linkFaultStream.resize(links.size());
        linkFaultStream[link_idx] =
            faultRng->fork(static_cast<std::uint64_t>(link_idx));
    } else if (cur > 0.0 && rate == 0.0) {
        --faultedLinks;
    }
    cur = rate;
}

void
Fabric::setEndpointFault(NodeId endpoint, double rate)
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: setEndpointFault before finalize()",
                        name().c_str());
    checkNode(endpoint);
    if (rate > 0.0 && !faultRng)
        afa::sim::panic("fabric %s: endpoint fault without a fault "
                        "rng (setFaultRng() first)", name().c_str());
    if (rate < 0.0 || rate >= 1.0)
        afa::sim::fatal("fabric %s: link fault rate %.3f out of [0, 1)",
                        name().c_str(), rate);
    // Both directions: TX and RX lanes of the endpoint's links.
    for (const auto &[nbr, li] : nodeInfo[endpoint].out) {
        setLinkFaultRate(li, rate);
        setLinkFaultRate(linkIndex(nbr, endpoint), rate);
    }
}

bool
Fabric::routeFaulted(std::uint32_t first, std::uint32_t last) const
{
    for (std::uint32_t i = first; i != last; ++i)
        if (linkFaultRate[pathHops[i].link] > 0.0)
            return true;
    return false;
}

std::size_t
Fabric::linkIndex(NodeId from, NodeId to) const
{
    for (const auto &[nbr, li] : nodeInfo[from].out)
        if (nbr == to)
            return li;
    afa::sim::panic("fabric %s: no link %s->%s", name().c_str(),
                    nodeInfo[from].name.c_str(),
                    nodeInfo[to].name.c_str());
}

const Link *
Fabric::linkBetween(NodeId from, NodeId to) const
{
    for (const auto &[nbr, li] : nodeInfo[from].out)
        if (nbr == to)
            return &links[li];
    return nullptr;
}

const std::string &
Fabric::nodeName(NodeId id) const
{
    checkNode(id);
    return nodeInfo[id].name;
}

void
Fabric::hop(std::uint32_t idx)
{
    Packet &p = packets[idx];
    assert(p.leg == Leg::Chain && "hop() on a packet outside the chain");
    assert(p.chainHop < pathHops.size() && "chain hop past every route");
    const Tick enter = now();
    const NodeId dst = p.dst;
    const std::uint32_t bytes = p.bytes;
    const PathHop &ph = pathHops[p.chainHop];
    Link &link = links[ph.link];
    // Arrival-order FIFO: anything reserved on this link for a later
    // start must yield to this packet (the reference model serves
    // links strictly in arrival order; a pending reservation's start
    // IS its owner's reference arrival).
    {
        const auto &resv = linkResv[ph.link];
        if (!resv.empty() && resv.back().start > enter)
            displaceEarlier(ph.link, enter);
    }
    Tick arrive = link.transfer(enter, afa::sim::Bytes{bytes});
    if (faultedLinks) {
        // Injected link fault: each delivery attempt is corrupted
        // with probability `rate` and the payload re-serialised.
        // Bounded so a spec rate close to 1 cannot livelock the hop.
        double rate = linkFaultRate[ph.link];
        if (rate > 0.0) {
            unsigned replays = 0;
            afa::sim::Rng &stream = linkFaultStream[ph.link];
            while (replays < 16 && stream.chance(rate)) {
                arrive = link.transfer(arrive,
                                       afa::sim::Bytes{bytes});
                ++replays;
            }
            fabricStats.linkReplays += replays;
        }
    }
    if (ph.to == dst) {
        // The delivery: one counted event.
        at(arrive, [this, idx] { deliverChained(idx); });
        return;
    }
    // Hop continuations are plumbing, not model events: how many of
    // them a packet needs depends on which execution strategy (fast
    // path, mid-path fallback, full chain) it happened to take.
    // Marking them internal keeps executedEvents() — and the
    // `events=` line of every figure — at exactly one counted event
    // per delivered packet regardless of the path taken.
    ++p.chainHop;
    sim().scheduleInternal(arrive + ph.forwardAfter,
                           [this, idx] { hop(idx); });
}

/** A chain packet's delivery event: drop the chain mark, commit the
 *  span, free the record and run the callback. */
void
Fabric::deliverChained(std::uint32_t idx)
{
    Packet &p = packets[idx];
    assert(p.leg == Leg::Chain && "chain delivery of a non-chain packet");
    const DeliverCtx ctx = p.ctx;
    EventFn cb = std::move(p.cb);
    packets.release(idx);
    --chainInFlight;
    if (ctx.io) {
        // Fallback spans get their real delivery tick: the record is
        // committed when the packet is delivered.
        spanLog->record(ctx.stage, ctx.io, ctx.begin, now(), ctx.track,
                        afa::obs::kSpanFlagFallback);
    }
    cb();
}

void
Fabric::send(NodeId src, NodeId dst, std::uint32_t bytes,
             EventFn on_delivered)
{
    sendWithSpan(src, dst, bytes, DeliverCtx{}, std::move(on_delivered));
}

/**
 * Carry a packet from @p src toward @p dst in one pooled record: one
 * fast-path walk where the route is free, the per-hop chain from the
 * first contended link on.
 */
void
Fabric::sendWithSpan(NodeId src, NodeId dst, std::uint32_t bytes,
                     const DeliverCtx &ctx, EventFn on_delivered)
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: send before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    ++fabricStats.packets;
    fabricStats.bytes += bytes;
    if (src == dst) {
        if (ctx.io)
            spanLog->record(ctx.stage, ctx.io, now(), now(), ctx.track,
                            afa::obs::kSpanFlagSelf);
        after(0, std::move(on_delivered));
        return;
    }
    const std::uint32_t idx = packets.acquire();
    Packet &p = packets[idx];
    p.cb = std::move(on_delivered);
    p.ctx = ctx;
    p.dst = dst;
    p.bytes = bytes;
    const std::size_t base = pathIndex(src, dst);
    const std::uint32_t first = pathOffset[base];
    const std::uint32_t last = pathOffset[base + 1];
    if (first == last)
        fatalNoRoute(src, dst);
    // The fast path is exact only while the busy horizons describe
    // ALL in-flight traffic; a chain packet's future hops are not in
    // the horizons yet, so reserving ahead of one could steal the
    // FIFO slot the reference model gives it (see DESIGN.md
    // "Events-per-IO budget").
    if (fastPathEnabled && chainInFlight == 0 &&
        (faultedLinks == 0 || !routeFaulted(first, last))) {
        // Walk the precompiled route, reserving each link at the
        // packet's computed entry time while the path stays
        // uncontended. Entry times are exactly what the per-hop chain
        // would observe, so occupy() advances each busy cursor to the
        // same horizon and the same arrival tick falls out — with
        // zero intermediate events. Every reservation past the first
        // hop starts in the future; each is recorded in linkResv so
        // that a packet reaching the link earlier can revoke it
        // (displaceEarlier()). A record holding only its first link
        // has no reservation, so nothing can displace it.
        Tick when = now();
        for (std::uint32_t i = first; /**/; ++i) {
            if (i == last) {
                ++fabricStats.fastPathPackets;
                // Span committed at the computed arrival; a later
                // displacement moves the true delivery but not this
                // record (see sendSpanned() in the header), and the
                // displaced packet commits none.
                if (p.ctx.io) {
                    spanLog->record(p.ctx.stage, p.ctx.io, p.ctx.begin,
                                    when, p.ctx.track,
                                    afa::obs::kSpanFlagFastPath);
                    p.ctx = DeliverCtx{};
                }
                // The delivery: one counted event that drops the
                // walked reservations and then runs the callback.
                p.fullWalk = true;
                p.hopsWalked = last - first;
                p.ev = at(when, [this, idx] { completeFlight(idx); });
                return;
            }
            const PathHop &ph = pathHops[i];
            Link &link = links[ph.link];
            if (!link.freeAt(when)) {
                // First contended link: hand the packet to the
                // per-hop model from this node onward, at the tick it
                // would have entered the link. transfer() re-reads
                // the busy horizon when the event fires, so queueing
                // is accounted exactly as in the reference model.
                // (If the horizon blocking us is itself a pending
                // future reservation starting after `when`, we are
                // the earlier entrant: hop() revokes it when the
                // continuation fires at `when`.)
                if (i == first)
                    break;
                // The walked prefix stays revocable until the
                // continuation fires; the span commits at delivery.
                beginChain();
                p.fullWalk = false;
                p.hopsWalked = i - first;
                // Mid-path continuation, not a delivery: internal.
                p.ev = sim().scheduleInternal(
                    when, [this, idx] { completeFlight(idx); });
                return;
            }
            Tick prev = link.busyUntil();
            if (i == first) {
                p.leg = Leg::Walk;
                p.pathFirst = first;
            } else {
                linkResv[ph.link].push_back(
                    Reservation{when, prev, idx, i - first});
            }
            when = link.occupy(when, afa::sim::Bytes{p.bytes}) +
                ph.forwardAfter;
        }
    }
    beginChain();
    p.leg = Leg::Chain;
    p.chainHop = first;
    hop(idx);
}

/**
 * A walk record's event fired: all of its reservations have started
 * (the event fires no earlier than the last entry tick), so drop them
 * and either deliver (full walk) or re-enter the per-hop model after
 * the walked prefix (mid-path fallback).
 */
void
Fabric::completeFlight(std::uint32_t idx)
{
    Packet &p = packets[idx];
    assert(p.leg == Leg::Walk && "completeFlight() on a non-walk record");
    for (std::uint32_t h = 1; h < p.hopsWalked; ++h)
        pruneExpired(pathHops[p.pathFirst + h].link);
    if (p.fullWalk) {
        // Free before invoking: the callback may re-enter send().
        EventFn cb = std::move(p.cb);
        packets.release(idx);
        cb();
        return;
    }
    p.leg = Leg::Chain;
    p.chainHop = p.pathFirst + p.hopsWalked;
    hop(idx);
}

/**
 * Drop expired reservation entries (start <= now) from the front of a
 * link's list. An expired entry can neither trigger a displacement
 * (arrivals enter at >= now) nor be revoked (only starts after the
 * entrant are), so it is pure garbage; entries are start-sorted, so
 * all expired entries sit at the front.
 */
void
Fabric::pruneExpired(std::size_t link_idx)
{
    auto &resv = linkResv[link_idx];
    std::size_t keep = 0;
    while (keep < resv.size() && resv[keep].start <= now())
        ++keep;
    if (keep)
        resv.erase(resv.begin(),
                   resv.begin() + static_cast<std::ptrdiff_t>(keep));
}

/**
 * Revoke the tail of a link's reservation list from position @p pos:
 * roll each occupancy back (reverse order, so each restored horizon is
 * exact) and mark each owner displaced at the lowest affected hop.
 * Owners newly displaced (or displaced at a lower hop than before) are
 * pushed on displaceWork for a downstream re-scan; displaceAll
 * collects each displaced record once.
 */
void
Fabric::cutReservations(std::size_t link_idx, std::size_t pos)
{
    auto &resv = linkResv[link_idx];
    for (std::size_t q = resv.size(); q-- > pos; ) {
        const Reservation &e = resv[q];
        Packet &rec = packets[e.rec];
        assert(rec.leg == Leg::Walk && "reservation owned by a non-walk "
                                       "record");
        links[link_idx].unoccupy(e.prevHorizon,
                                 afa::sim::Bytes{rec.bytes});
        if (!rec.displaced) {
            rec.displaced = true;
            rec.displacedHop = e.hop;
            rec.displacedStart = e.start;
            displaceWork.push_back(e.rec);
            displaceAll.push_back(e.rec);
        } else if (e.hop < rec.displacedHop) {
            rec.displacedHop = e.hop;
            rec.displacedStart = e.start;
            displaceWork.push_back(e.rec);
        }
    }
    resv.resize(pos);
}

/**
 * A packet is entering @p link_idx at @p enter ahead of at least one
 * pending reservation. The reference model serves every link in
 * arrival order, and a pending reservation's start is its owner's
 * reference arrival, so every reservation starting after @p enter must
 * yield: revoke it, cascade to the owner's downstream reservations
 * (and to reservations queued behind those — their owners' arrivals
 * are later still), cancel each owner's scheduled event, and re-enter
 * each owner into the per-hop model at the node before its displaced
 * hop, at its recorded entry tick — exactly where and when the
 * reference model has it arrive. The owner's committed prefix (hops
 * before the displacement point) is untouched: the packet really does
 * traverse those links at the reserved ticks.
 */
void
Fabric::displaceEarlier(std::size_t link_idx, Tick enter)
{
    displaceWork.clear();
    displaceAll.clear();
    auto &resv = linkResv[link_idx];
    std::size_t pos = resv.size();
    while (pos > 0 && resv[pos - 1].start > enter)
        --pos;
    cutReservations(link_idx, pos);
    while (!displaceWork.empty()) {
        std::uint32_t ri = displaceWork.back();
        displaceWork.pop_back();
        Packet &rec = packets[ri];
        // Remove the owner's not-yet-started reservations downstream
        // of its displacement point. (Entries already removed by an
        // earlier cut are simply not found.)
        for (std::uint32_t h = rec.displacedHop + 1;
             h < rec.hopsWalked; ++h) {
            std::size_t li = pathHops[rec.pathFirst + h].link;
            auto &lv = linkResv[li];
            for (std::size_t p = 0; p < lv.size(); ++p) {
                if (lv[p].rec == ri && lv[p].hop == h) {
                    cutReservations(li, p);
                    break;
                }
            }
        }
    }
    for (std::uint32_t ri : displaceAll) {
        Packet &rec = packets[ri];
        bool was_pending = sim().cancel(rec.ev);
        assert(was_pending && "displaced a record whose event fired");
        (void)was_pending;
        if (rec.fullWalk) {
            // No longer a single-event delivery: recount it as a
            // fallback packet holding the fast-path gate closed until
            // it is delivered. Its span was committed at send time
            // (ctx.io is 0), so the chain delivery commits none.
            --fabricStats.fastPathPackets;
            ++fabricStats.fallbackPackets;
            ++chainInFlight;
            rec.fullWalk = false;
        }
        // The record now represents only the committed prefix, with
        // its continuation at the displaced hop's entry tick; it
        // stays revocable at hops below the displacement point.
        rec.hopsWalked = rec.displacedHop;
        rec.displaced = false;
        // The displaced record is now a mid-path continuation (its
        // counted delivery event will be scheduled at the end of the
        // chain): internal.
        rec.ev = sim().scheduleInternal(
            rec.displacedStart, [this, ri] { completeFlight(ri); });
    }
}

/**
 * Mark a packet as traversing in per-hop chain mode; its delivery
 * (deliverChained()) drops the mark and commits the fallback span,
 * when one is open.
 */
void
Fabric::beginChain()
{
    ++fabricStats.fallbackPackets;
    ++chainInFlight;
}

void
Fabric::sendSpanned(NodeId src, NodeId dst, std::uint32_t bytes,
                    std::uint64_t io, std::uint16_t track,
                    afa::obs::Stage stage, EventFn on_delivered)
{
    DeliverCtx ctx;
    if (spanLog && io != 0 && spanLog->wants(afa::obs::categoryOf(stage)))
        ctx = DeliverCtx{io, now(), track, stage};
    sendWithSpan(src, dst, bytes, ctx, std::move(on_delivered));
}

Tick
Fabric::queueDelay() const
{
    Tick total = 0;
    for (const Link &link : links)
        total += link.queueDelay();
    return total;
}

Tick
Fabric::unloadedLatency(NodeId src, NodeId dst,
                        std::uint32_t bytes) const
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: unloadedLatency before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    if (src == dst)
        return 0;
    const std::size_t base = pathIndex(src, dst);
    const std::uint32_t first = pathOffset[base];
    const std::uint32_t last = pathOffset[base + 1];
    if (first == last)
        fatalNoRoute(src, dst);
    Tick total = 0;
    for (std::uint32_t i = first; i != last; ++i) {
        const PathHop &ph = pathHops[i];
        const Link &link = links[ph.link];
        total += link.serialization(afa::sim::Bytes{bytes}) +
            link.params().propagation +
            ph.forwardAfter;
    }
    return total;
}

unsigned
Fabric::hopCount(NodeId src, NodeId dst) const
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: hopCount before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    const std::size_t base = pathIndex(src, dst);
    return pathOffset[base + 1] - pathOffset[base];
}

} // namespace afa::pcie
