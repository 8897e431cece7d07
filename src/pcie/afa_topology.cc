#include "pcie/afa_topology.hh"

#include "sim/logging.hh"

namespace afa::pcie {

AfaTopology
buildAfaTopology(Fabric &fabric, const AfaTopologyParams &params)
{
    if (params.ssds == 0)
        afa::sim::fatal("AFA topology: need at least one SSD");
    if (params.ssds > kMaxAfaSsds)
        afa::sim::fatal("AFA topology: %u SSDs exceed the %u one "
                        "fabric holds",
                        params.ssds, kMaxAfaSsds);
    if (params.ssdsPerCarrier == 0 || params.carriersPerLeaf == 0)
        afa::sim::fatal("AFA topology: carrier geometry must be >= 1");

    AfaTopology topo;
    topo.host = fabric.addEndpoint("host");
    topo.rootSwitch =
        fabric.addSwitch("sw.root", params.switchForwardLatency);
    fabric.connect(topo.host, topo.rootSwitch,
                   LinkParams{params.uplinkLanes, params.linkPropagation});

    unsigned carriers = (params.ssds + params.ssdsPerCarrier - 1) /
        params.ssdsPerCarrier;
    unsigned leaves = (carriers + params.carriersPerLeaf - 1) /
        params.carriersPerLeaf;

    for (unsigned l = 0; l < leaves; ++l) {
        NodeId leaf = fabric.addSwitch(
            afa::sim::strfmt("sw.leaf%u", l),
            params.switchForwardLatency);
        fabric.connect(topo.rootSwitch, leaf,
                       LinkParams{params.leafLanes, params.linkPropagation});
        topo.leafSwitches.push_back(leaf);
    }

    for (unsigned c = 0; c < carriers; ++c) {
        NodeId leaf = topo.leafSwitches[c / params.carriersPerLeaf];
        NodeId carrier = fabric.addSwitch(
            afa::sim::strfmt("sw.carrier%u", c),
            params.switchForwardLatency);
        fabric.connect(leaf, carrier,
                       LinkParams{params.carrierLanes,
                                  params.linkPropagation});
        topo.carrierSwitches.push_back(carrier);
    }

    for (unsigned s = 0; s < params.ssds; ++s) {
        NodeId carrier = topo.carrierSwitches[s / params.ssdsPerCarrier];
        NodeId ssd =
            fabric.addEndpoint(afa::sim::strfmt("nvme%u", s));
        fabric.connect(carrier, ssd,
                       LinkParams{params.ssdLanes, params.linkPropagation});
        topo.ssds.push_back(ssd);
    }

    fabric.finalize();
    return topo;
}

} // namespace afa::pcie
