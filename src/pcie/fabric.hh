/**
 * @file
 * The PCIe switch fabric: nodes (endpoints and store-and-forward
 * switches) joined by Links, with shortest-path routing.
 *
 * finalize() precompiles, per (src, dst), the full hop sequence as
 * packed link-index + forward-latency records. When every link on the
 * path is free at the packet's computed entry time (the dominant case
 * at QD1), send() advances all link busy cursors in one pass and
 * schedules a single delivery event at the arrival tick. From the
 * first contended link onward it falls back to the per-hop event
 * model, so contention on any link or switch naturally delays
 * everything behind it, tick-for-tick as before.
 *
 * Reserving downstream links at *future* entry ticks is only exact
 * while nothing reaches those links earlier; every future reservation
 * is therefore recorded and revocable. A packet that enters a link
 * ahead of a pending reservation's start displaces the reservation's
 * owner: the owner's scheduled event is cancelled, its unstarted
 * occupancy rolled back (cascading to reservations queued behind it),
 * and the owner re-enters the per-hop model at its recorded entry
 * tick — which is exactly its reference-model arrival, so link FIFO
 * order always equals arrival order. See DESIGN.md "Events-per-IO
 * budget" for the full equivalence contract.
 *
 * Every packet in flight, whichever way it travels, keeps its state
 * (callback, span context, destination, size, next link) in one
 * pooled record; the events that move it capture only the record's
 * index (DESIGN.md §9, "Allocation budget").
 */

#ifndef AFA_PCIE_FABRIC_HH
#define AFA_PCIE_FABRIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "pcie/link.hh"
#include "sim/pool.hh"
#include "sim/sim_object.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::pcie {

/** Identifies a fabric node (endpoint or switch). */
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = 0xffffffffu;

/** Fabric-wide traffic statistics. */
struct FabricStats
{
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    /** Packets delivered by the single-event uncontended fast path. */
    std::uint64_t fastPathPackets = 0;
    /** Packets that took the per-hop event model (contention hit, or
     *  the fast path disabled). Self-sends count for neither. */
    std::uint64_t fallbackPackets = 0;
    /** Transfers repeated because an injected link fault corrupted
     *  them (each replay re-serialises the full payload). */
    std::uint64_t linkReplays = 0;
};

/**
 * A tree/mesh of PCIe switches and endpoints.
 *
 * Build with addEndpoint()/addSwitch()/connect(), then finalize()
 * (computes routes), then send().
 */
class Fabric : public afa::sim::SimObject
{
  public:
    Fabric(afa::sim::Simulator &simulator, std::string fabric_name);

    /** Add a leaf device (host root complex or SSD endpoint). */
    NodeId addEndpoint(const std::string &node_name);

    /**
     * Add a store-and-forward switch with the given per-packet
     * forwarding latency.
     */
    NodeId addSwitch(const std::string &node_name, Tick forward_latency);

    /**
     * Join two nodes with a bidirectional link (one Link object per
     * direction, so each direction serialises independently, like the
     * separate TX/RX lanes of real PCIe).
     */
    void connect(NodeId a, NodeId b, const LinkParams &params);

    /** Compute routing tables. Must be called before send(). */
    void finalize();

    /**
     * Send @p bytes from @p src to @p dst; @p on_delivered fires when
     * the last byte has arrived at @p dst.
     */
    void send(NodeId src, NodeId dst, std::uint32_t bytes,
              afa::sim::EventFn on_delivered);

    /**
     * send() that also records an obs transit span [send, deliver]
     * for IO @p io on @p track. The span's flags say how the packet
     * travelled: self-send, single-event fast path, or per-hop
     * fallback. No-op wrapper around send() when the span log is
     * absent, the pcie category is disabled, or @p io is 0.
     *
     * Fast-path spans are committed at send time with the computed
     * arrival tick; in the rare case the packet is later displaced
     * into the per-hop model its true delivery moves later and the
     * recorded span keeps the optimistic end (the *simulation* stays
     * exact — only this telemetry record is approximate).
     */
    void sendSpanned(NodeId src, NodeId dst, std::uint32_t bytes,
                     std::uint64_t io, std::uint16_t track,
                     afa::obs::Stage stage,
                     afa::sim::EventFn on_delivered);

    /** Attach (or detach, with nullptr) the span log. */
    void setSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

    /**
     * Estimated unloaded delivery latency (no queueing) for planning
     * and tests.
     */
    Tick unloadedLatency(NodeId src, NodeId dst,
                         std::uint32_t bytes) const;

    /** Number of link hops between two nodes. */
    unsigned hopCount(NodeId src, NodeId dst) const;

    /** Node count. */
    std::size_t nodes() const { return nodeInfo.size(); }

    /** Directed link between adjacent nodes (for stats); null if none. */
    const Link *linkBetween(NodeId from, NodeId to) const;

    /** Number of directed links (two per connect()). */
    std::size_t linkCount() const { return links.size(); }

    /** Directed link by construction index (for stats iteration). */
    const Link &linkAt(std::size_t index) const { return links[index]; }

    /** Fabric-wide stats. */
    const FabricStats &stats() const { return fabricStats; }

    /** Queueing delay endured on every link: the sum of each
     *  Link::queueDelay(). */
    Tick queueDelay() const;

    /** Packet records ever created: the pool's high-water mark. */
    std::size_t packetRecords() const { return packets.capacity(); }

    /**
     * Enable/disable the uncontended single-event fast path (on by
     * default). Disabling forces every packet through the per-hop
     * event model — the reference behaviour the fast path must match
     * tick-for-tick; used by the differential tests.
     */
    void setFastPath(bool enabled) { fastPathEnabled = enabled; }

    /** True while the uncontended fast path is enabled. */
    bool fastPath() const { return fastPathEnabled; }

    /**
     * The random stream link-fault replay coin flips derive from.
     * Must be set before any endpoint fault activates; the
     * FaultEngine passes its own plan-seeded stream so faulted runs
     * replay identically at any --jobs (detlint: fault-rng). Each
     * faulted link forks a private child stream by link index when it
     * is armed, so the flip a packet sees depends only on its link
     * and its position in that link's (model-deterministic) packet
     * order — never on how hop events interleave across links.
     */
    void setFaultRng(afa::sim::Rng *rng) { faultRng = rng; }

    /**
     * Inject (rate > 0) or clear (rate == 0) a transient error rate on
     * every directed link adjacent to @p endpoint: each transfer on a
     * faulted link is independently corrupted with probability @p rate
     * and replayed in full, possibly repeatedly. Routes crossing a
     * faulted link leave the single-event fast path and take the
     * per-hop reference model, so replay delays propagate exactly
     * (PR 3 contract); with no faulted links the only added send()
     * cost is one integer test.
     */
    void setEndpointFault(NodeId endpoint, double rate);

    /** Remove the fault on @p endpoint (setEndpointFault(.., 0)). */
    void clearEndpointFault(NodeId endpoint)
    {
        setEndpointFault(endpoint, 0.0);
    }

    /** Name of a node. */
    const std::string &nodeName(NodeId id) const;

  private:
    struct NodeInfo
    {
        std::string name;
        bool isSwitch = false;
        Tick forwardLatency = 0;
        // Adjacency: (neighbour, index into links of the directed
        // link this->neighbour).
        std::vector<std::pair<NodeId, std::size_t>> out;
    };

    /** One precompiled hop of a (src, dst) route. */
    struct PathHop
    {
        std::uint32_t link;  ///< index into links
        NodeId to;           ///< node at the far end of the link
        Tick forwardAfter;   ///< store-and-forward latency charged
                             ///< after this hop (0 on the final hop)
    };

    /**
     * One revocable future-entry reservation on a link, placed by the
     * fast-path walk for every hop past the first. Entries on a link
     * are sorted by start (occupy() requires freeAt(), so each new
     * reservation begins at or after the previous one's end); entries
     * whose start has passed are expired garbage, pruned lazily.
     */
    struct Reservation
    {
        Tick start;          ///< owner starts serialising (= its
                             ///< reference-model arrival at the link)
        Tick prevHorizon;    ///< link busy horizon just before the
                             ///< occupy(), for rollback
        std::uint32_t rec;   ///< owning Packet record index
        std::uint32_t hop;   ///< hop position on the owner's route
                             ///< (>= 1; hop 0 starts at send time and
                             ///< can never be displaced)
    };

    /**
     * The span a packet commits: at send time for a fast-path walk,
     * at delivery for a chain packet (io 0 = no span).
     */
    struct DeliverCtx
    {
        std::uint64_t io = 0;   ///< span identity (0 = no span)
        Tick begin = 0;
        std::uint16_t track = 0;
        afa::obs::Stage stage = afa::obs::Stage::FabricSubmit;
    };

    /** Where a packet record is on its way (checked at every step). */
    enum class Leg : std::uint8_t {
        Walk,  ///< put on its first links by the fast-path walk
        Chain, ///< in the per-hop event model
    };

    /**
     * One packet in flight, from send() to its delivery.
     * The events that move it capture [this, record index]; the
     * record is freed just before the caller's callback runs, since
     * that callback may send again.
     *
     * A Walk record is a full walk awaiting its single delivery
     * event, or the walked prefix of a mid-path fallback awaiting its
     * chain continuation event. Links past the first hold revocable
     * reservations; holding the event handle makes the packet
     * displaceable — if another packet arrives at a reserved link
     * before the reservation starts, the event is cancelled, the
     * unstarted reservations are rolled back, and the packet re-enters
     * the per-hop model at its recorded entry tick. A Chain record
     * holds the fast-path gate (chainInFlight) until its delivery.
     */
    struct Packet
    {
        afa::sim::EventFn cb;       ///< the caller's on_delivered
        afa::sim::EventHandle ev;   ///< Walk: delivery or continuation
        DeliverCtx ctx;             ///< span still to commit
        NodeId dst = kInvalidNode;
        std::uint32_t chainHop = 0; ///< Chain: index into pathHops of
                                    ///< the next link to enter
        std::uint32_t bytes = 0;
        Leg leg = Leg::Chain;
        bool fullWalk = false;      ///< Walk: ev delivers (else it
                                    ///< re-enters hop() after the
                                    ///< walked prefix)
        std::uint32_t pathFirst = 0;///< Walk: base index into pathHops
        std::uint32_t hopsWalked = 0;///< Walk: links occupied;
                                    ///< reservations cover hops
                                    ///< 1..hopsWalked-1
        // Scratch used only inside displaceEarlier():
        bool displaced = false;
        std::uint32_t displacedHop = 0;
        Tick displacedStart = 0;
    };

    std::vector<NodeInfo> nodeInfo;
    std::vector<Link> links;
    // Dense n*n next-hop table: nextHopFlat[src * n + dst] is the
    // neighbour on the shortest path (kInvalidNode if unreachable).
    // Only finalize() reads it, but it lives as long as the fabric:
    // freeing it at the end of finalize() made afabench's set-up
    // cycles slower (BENCH_simcore.json event_core).
    std::vector<NodeId> nextHopFlat;
    // Precompiled routes: pathHops[pathOffset[src * n + dst] ..
    // pathOffset[src * n + dst + 1]) is the full hop sequence.
    std::vector<PathHop> pathHops;
    std::vector<std::uint32_t> pathOffset;
    // Pending future-entry reservations per directed link (parallel to
    // links; sized in finalize()). Almost always empty or tiny: an
    // entry lives from the owning send() until it starts, is displaced,
    // or the owner's event completes and prunes it.
    std::vector<std::vector<Reservation>> linkResv;
    afa::sim::Pool<Packet> packets;
    /** displaceEarlier()'s work lists, kept so a displacement
     *  allocates nothing once they have grown. */
    std::vector<std::uint32_t> displaceWork;
    std::vector<std::uint32_t> displaceAll;
    bool isFinalized;
    bool fastPathEnabled = true;
    /**
     * Packets currently traversing via per-hop chain events. Their
     * future link occupancy is NOT yet reflected in the link busy
     * horizons, so while any are in flight the fast path must not
     * reserve ahead of them (it could steal a FIFO slot the reference
     * model would have given the chain packet). Fast-path packets by
     * contrast reserve their whole path at send time, so horizons
     * fully describe them; if traffic nevertheless reaches a reserved
     * link first, displaceEarlier() revokes the reservation, keeping
     * FIFO order equal to arrival order (see fabric.cc).
     */
    std::uint64_t chainInFlight = 0;
    // Injected per-link fault state (parallel to links; sized in
    // finalize()). faultedLinks counts entries with rate > 0 so the
    // healthy-path cost of the fault hooks is a single integer test.
    std::vector<double> linkFaultRate;
    // Per-link replay streams, forked from the FaultEngine's stream
    // by link index when a fault is armed (see setLinkFaultRate()).
    std::vector<afa::sim::Rng> linkFaultStream;
    unsigned faultedLinks = 0;
    afa::sim::Rng *faultRng = nullptr;
    FabricStats fabricStats;
    afa::obs::SpanLog *spanLog = nullptr;

    std::size_t
    pathIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * nodeInfo.size() + dst;
    }

    void sendWithSpan(NodeId src, NodeId dst, std::uint32_t bytes,
                      const DeliverCtx &ctx,
                      afa::sim::EventFn on_delivered);
    void hop(std::uint32_t idx);
    void deliverChained(std::uint32_t idx);
    void setLinkFaultRate(std::size_t link_idx, double rate);
    bool routeFaulted(std::uint32_t first, std::uint32_t last) const;
    void beginChain();
    void completeFlight(std::uint32_t idx);
    void pruneExpired(std::size_t link_idx);
    void displaceEarlier(std::size_t link_idx, Tick enter);
    void cutReservations(std::size_t link_idx, std::size_t pos);
    std::size_t linkIndex(NodeId from, NodeId to) const;
    void checkNode(NodeId id) const;
    [[noreturn]] void fatalNoRoute(NodeId at, NodeId dst) const;
};

} // namespace afa::pcie

#endif // AFA_PCIE_FABRIC_HH
