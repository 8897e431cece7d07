/**
 * @file
 * Builder for the paper's AFA fabric (Figs. 2 and 4): one host root
 * complex behind a Gen3 x16 uplink into a two-level tree of PCIe
 * switches, leaf switches feeding M.2 carrier cards that each hold
 * four M.2 NVMe SSDs.
 *
 * The full appliance has 7 switches, 61 device slots and 3 uplinks;
 * the paper (and our default) uses the one-third slice owned by a
 * single host: 16 carrier cards = 64 SSDs.
 */

#ifndef AFA_PCIE_AFA_TOPOLOGY_HH
#define AFA_PCIE_AFA_TOPOLOGY_HH

#include <vector>

#include "pcie/fabric.hh"

namespace afa::pcie {

/**
 * The most SSDs one AFA tree holds: 16x the paper's 64-SSD slice. The
 * fabric precomputes the route between every pair of nodes, so its
 * tables grow with the square of the node count; at this bound they
 * take ~200 MB, and at 100,000 SSDs they would take over a terabyte.
 */
constexpr unsigned kMaxAfaSsds = 1024;

/** Shape of the single-host AFA slice. */
struct AfaTopologyParams
{
    unsigned ssds = 64;              ///< SSD endpoints to attach
    unsigned ssdsPerCarrier = 4;     ///< M.2 slots per carrier card
    unsigned carriersPerLeaf = 3;    ///< carrier cards per leaf switch
    Tick switchForwardLatency = 300; ///< per-switch forward time, ns
    Tick linkPropagation = 100;      ///< per-link flight time, ns
    unsigned uplinkLanes = 16;       ///< host uplink (Gen3 x16)
    unsigned leafLanes = 16;         ///< root-to-leaf links
    unsigned carrierLanes = 8;       ///< leaf-to-carrier links
    unsigned ssdLanes = 4;           ///< carrier-to-M.2 links
};

/** The built topology: node ids for the host and each SSD. */
struct AfaTopology
{
    NodeId host = kInvalidNode;
    NodeId rootSwitch = kInvalidNode;
    std::vector<NodeId> leafSwitches;
    std::vector<NodeId> carrierSwitches;
    std::vector<NodeId> ssds; ///< index = nvme device number
};

/**
 * Build the AFA fabric into @p fabric and finalize it. Fails through
 * fatal() on zero SSDs or more than kMaxAfaSsds.
 */
AfaTopology buildAfaTopology(Fabric &fabric,
                             const AfaTopologyParams &params);

} // namespace afa::pcie

#endif // AFA_PCIE_AFA_TOPOLOGY_HH
