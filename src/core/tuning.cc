#include "core/tuning.hh"

namespace afa::core {

const char *
tuningProfileName(TuningProfile profile)
{
    switch (profile) {
      case TuningProfile::Default:
        return "default";
      case TuningProfile::Chrt:
        return "chrt";
      case TuningProfile::Isolcpus:
        return "isolcpus";
      case TuningProfile::IrqAffinity:
        return "irq";
      case TuningProfile::ExpFirmware:
        return "exp-fw";
    }
    return "?";
}

TuningConfig
TuningConfig::forProfile(TuningProfile profile, const Geometry &geometry)
{
    TuningConfig cfg;
    cfg.profile = profile;
    // The ladder is cumulative; fall-through expresses inclusion.
    switch (profile) {
      case TuningProfile::ExpFirmware:
        cfg.firmware.smart.enabled = false;
        [[fallthrough]];
      case TuningProfile::IrqAffinity:
        cfg.pinIrqAffinity = true;
        cfg.kernel.irq.irqBalanceEnabled = false;
        [[fallthrough]];
      case TuningProfile::Isolcpus:
        cfg.kernel.isolcpus = geometry.isolationSet();
        cfg.kernel.nohzFull = cfg.kernel.isolcpus;
        cfg.kernel.rcuNocbs = cfg.kernel.isolcpus;
        cfg.kernel.cstate.maxCstate = 1;
        cfg.kernel.cstate.idlePoll = true;
        [[fallthrough]];
      case TuningProfile::Chrt:
        cfg.fioRtPriority = 99;
        [[fallthrough]];
      case TuningProfile::Default:
        break;
    }
    return cfg;
}

} // namespace afa::core
