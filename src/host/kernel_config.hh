/**
 * @file
 * The host kernel's tunable behaviour: boot command-line options
 * (isolcpus / nohz_full / rcu_nocbs / processor.max_cstate / idle),
 * scheduler knobs, and the IRQ balancing policy. This is the object
 * the paper's four configurations (default, chrt, isolcpus, irq)
 * manipulate.
 */

#ifndef AFA_HOST_KERNEL_CONFIG_HH
#define AFA_HOST_KERNEL_CONFIG_HH

#include <cstdint>
#include <set>
#include <string>

#include "sim/types.hh"

namespace afa::host {

using afa::sim::Tick;

/** A set of logical CPU ids (boot-option list like "4-19,24-39"). */
using CpuSet = std::set<unsigned>;

/** Render a CpuSet as a kernel cpu-list string. */
std::string formatCpuList(const CpuSet &cpus);

/**
 * CFS scheduler tunables. Base values are the Linux 4.7 defaults
 * scaled by the kernel's own CPU factor (1 + ilog2(min(ncpus, 8)) =
 * 4 is capped in reality around x2-4 on large hosts; we use x2,
 * which lands the default config's worst case at the paper's ~5 ms).
 */
struct SchedParams
{
    /** sysctl_sched_wakeup_granularity: a woken task preempts only
     *  when the running task's vruntime leads by more than this. */
    Tick wakeupGranularity = afa::sim::msec(2);

    /** sysctl_sched_min_granularity: minimum slice per task. */
    Tick minGranularity = afa::sim::usec(1500);

    /** sysctl_sched_latency: the scheduling period. */
    Tick schedLatency = afa::sim::msec(12);

    /** Sleeper credit on wakeup placement (sched_latency / 2). */
    Tick sleeperCredit = afa::sim::msec(6);

    /** Periodic (rebalance) load-balancing interval. */
    Tick balanceInterval = afa::sim::msec(64);

    /** Direct cost of a context switch. */
    Tick contextSwitchCost = afa::sim::nsec(1200);

    /** Indirect (cache/TLB pollution) cost after switching to a task
     *  whose working set was evicted by another task. */
    Tick cachePollutionCost = afa::sim::usec(2);

    /** Timer tick period on housekeeping CPUs (CONFIG_HZ=1000). */
    Tick tickPeriod = afa::sim::msec(1);

    /** Timer tick period on nohz_full CPUs (the "1 Hz" residual). */
    Tick nohzTickPeriod = afa::sim::sec(1);

    /** CPU time consumed by one timer tick. */
    Tick tickCost = afa::sim::usec(2);

    /** CPU time of an RCU-callback softirq burst. */
    Tick rcuCallbackCost = afa::sim::usec(15);

    /** Mean interval between RCU softirq bursts per CPU. */
    Tick rcuCallbackInterval = afa::sim::msec(20);

    /** Wall-time slowdown while the hyper-thread sibling is busy. */
    double htSlowdown = 1.3;
};

/** IRQ routing policy. */
struct IrqParams
{
    /** The irqbalance daemon (reassigns vectors periodically). */
    bool irqBalanceEnabled = true;

    /** irqbalance scan interval (the daemon's 10 s default). */
    Tick irqBalanceInterval = afa::sim::sec(10);

    /** Hardirq handler CPU cost (NVMe completion path). */
    Tick hardirqCost = afa::sim::nsec(1500);

    /** Post-hardirq completion work (blk-mq softirq). */
    Tick softirqCost = afa::sim::nsec(800);

    /** IPI flight + handling when waking a task on another CPU. */
    Tick ipiCost = afa::sim::nsec(1200);

    /** Extra cost when the IRQ lands on the remote NUMA socket. */
    Tick crossSocketPenalty = afa::sim::nsec(500);
};

/** C-state behaviour (processor.max_cstate / idle=poll). */
struct CstateParams
{
    /** Deepest C-state the menu governor may pick (1 or 6 here). */
    unsigned maxCstate = 6;

    /** idle=poll: never enter a C-state at all. */
    bool idlePoll = false;

    /** C1 exit latency. */
    Tick c1ExitLatency = afa::sim::nsec(2000);

    /** C6 exit latency (Ivy Bridge-EP class). */
    Tick c6ExitLatency = afa::sim::usec(40);

    /** Idle residency the governor demands before picking C6. */
    Tick c6Threshold = afa::sim::usec(400);
};

/** The complete kernel configuration. */
struct KernelConfig
{
    SchedParams sched;
    IrqParams irq;
    CstateParams cstate;

    /** isolcpus= : CPUs removed from general scheduling/balancing. */
    CpuSet isolcpus;

    /** nohz_full= : CPUs ticking at 1 Hz when single-task. */
    CpuSet nohzFull;

    /** rcu_nocbs= : CPUs whose RCU callbacks are offloaded. */
    CpuSet rcuNocbs;

    /**
     * Render the boot command line these settings correspond to,
     * in the paper's Section IV-C format.
     */
    std::string bootCommandLine() const;
};

} // namespace afa::host

#endif // AFA_HOST_KERNEL_CONFIG_HH
