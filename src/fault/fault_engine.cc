#include "fault/fault_engine.hh"

#include "sim/logging.hh"

namespace afa::fault {

FaultEngine::FaultEngine(afa::sim::Simulator &simulator,
                         std::shared_ptr<const FaultPlan> fault_plan,
                         std::vector<afa::nvme::Controller *> controllers,
                         afa::pcie::Fabric *fabric_ptr,
                         std::vector<afa::pcie::NodeId> ssd_nodes)
    : SimObject(simulator, "afa.faults"), planRef(std::move(fault_plan)),
      ctrls(std::move(controllers)), fabric(fabric_ptr),
      ssdNodes(std::move(ssd_nodes))
{
    if (!planRef)
        afa::sim::panic("%s: constructed without a plan",
                        name().c_str());
}

void
FaultEngine::start()
{
    for (const FaultEvent &ev : planRef->events) {
        bool needs_ctrl = ev.kind != FaultKind::LinkError;
        if (needs_ctrl && ev.ssd >= ctrls.size())
            afa::sim::fatal("fault plan: %s targets ssd%u but the "
                            "array has %zu SSDs",
                            faultKindName(ev.kind), ev.ssd,
                            ctrls.size());
        if (!needs_ctrl && (!fabric || ev.ssd >= ssdNodes.size()))
            afa::sim::fatal("fault plan: link_error targets ssd%u "
                            "but the fabric has %zu SSD endpoints",
                            ev.ssd, ssdNodes.size());
    }
    if (fabric)
        fabric->setFaultRng(&rng());
    for (const FaultEvent &ev : planRef->events) {
        const FaultEvent *e = &ev;
        // Posted before the run posts anything, so each edge runs
        // ahead of every event the run posts for its tick.
        at(e->at, [this, e] { apply(*e); });
        at(e->at + e->duration, [this, e] { revert(*e); });
    }
}

void
FaultEngine::apply(const FaultEvent &event)
{
    ++engStats.applied;
    ++engStats.active;
    switch (event.kind) {
      case FaultKind::Limp:
        ctrls[event.ssd]->setLimpFactor(event.factor);
        break;
      case FaultKind::Dropout:
        ctrls[event.ssd]->setOffline(true);
        break;
      case FaultKind::CtrlStall:
        // stallUntil() is absolute: the whole window is applied at
        // onset and drains by itself; revert only keeps the books.
        ctrls[event.ssd]->stallUntil(event.at + event.duration);
        break;
      case FaultKind::LinkError:
        fabric->setEndpointFault(ssdNodes[event.ssd], event.rate);
        break;
    }
}

void
FaultEngine::revert(const FaultEvent &event)
{
    ++engStats.reverted;
    --engStats.active;
    switch (event.kind) {
      case FaultKind::Limp:
        ctrls[event.ssd]->setLimpFactor(1.0);
        break;
      case FaultKind::Dropout:
        ctrls[event.ssd]->setOffline(false);
        break;
      case FaultKind::CtrlStall:
        break;
      case FaultKind::LinkError:
        fabric->clearEndpointFault(ssdNodes[event.ssd]);
        break;
    }
}

} // namespace afa::fault
