/**
 * @file
 * The paper's cumulative tuning ladder (Section IV):
 *
 *   Default     - stock CentOS 7 / Linux 4.7.2 behaviour (Fig. 6)
 *   Chrt        - + FIO at SCHED_FIFO priority 99 (Fig. 7)
 *   Isolcpus    - + isolcpus/nohz_full/rcu_nocbs/max_cstate=1/
 *                   idle=poll boot options (Fig. 8)
 *   IrqAffinity - + all 2,560 NVMe vectors pinned to their queue's
 *                   CPU, irqbalance stopped (Fig. 9)
 *   ExpFirmware - + experimental SSD firmware with SMART data
 *                   update/save disabled (Fig. 11)
 *
 * Each step includes every previous step, exactly as measured in the
 * paper.
 */

#ifndef AFA_CORE_TUNING_HH
#define AFA_CORE_TUNING_HH

#include "core/geometry.hh"
#include "host/kernel_config.hh"
#include "nvme/firmware_config.hh"

namespace afa::core {

/** The five system configurations of the paper. */
enum class TuningProfile : std::uint8_t {
    Default,
    Chrt,
    Isolcpus,
    IrqAffinity,
    ExpFirmware,
};

/** Printable name ("default", "chrt", "isolcpus", "irq", "exp-fw"). */
const char *tuningProfileName(TuningProfile profile);

/** The concrete settings a profile expands to. */
struct TuningConfig
{
    TuningProfile profile = TuningProfile::Default;

    /** FIO threads run SCHED_FIFO at this priority (0 = CFS). */
    int fioRtPriority = 0;

    /** Kernel configuration (boot options + policies). */
    afa::host::KernelConfig kernel;

    /** Pin every NVMe vector to its queue CPU and stop irqbalance. */
    bool pinIrqAffinity = false;

    /** SSD firmware configuration. */
    afa::nvme::FirmwareConfig firmware;

    /**
     * Expand a profile against a geometry (the isolation set is the
     * geometry's FIO CPU list, as in the paper's boot line).
     */
    static TuningConfig forProfile(TuningProfile profile,
                                   const Geometry &geometry);
};

} // namespace afa::core

#endif // AFA_CORE_TUNING_HH
