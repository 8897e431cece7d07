/**
 * @file
 * The assembled all-flash-array system under test: host CPUs +
 * scheduler + IRQ subsystem + background load, the PCIe switch
 * fabric, 64 NVMe SSD models, and the NVMe driver glue that turns it
 * all into an async I/O engine for FIO threads.
 *
 * This mirrors the paper's Fig. 4 testbed: a dual-socket Xeon host
 * whose second socket owns a Gen3 x16 uplink into the 2OU AFA.
 */

#ifndef AFA_CORE_AFA_SYSTEM_HH
#define AFA_CORE_AFA_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_engine.hh"
#include "host/background.hh"
#include "host/irq.hh"
#include "host/scheduler.hh"
#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "pcie/afa_topology.hh"
#include "pcie/fabric.hh"
#include "sim/pool.hh"
#include "workload/io_engine.hh"

namespace afa::obs {
class MetricsRegistry;
class Telemetry;
} // namespace afa::obs

namespace afa::core {

/** Bytes of a submission (SQE fetch + doorbell) on the fabric. */
constexpr std::uint32_t kSqeBytes = 72;

/** Everything configurable about the assembled system. */
struct AfaSystemParams
{
    unsigned ssds = 64;

    afa::host::CpuTopologyParams topology;
    afa::host::KernelConfig kernel;
    afa::host::BackgroundParams background =
        afa::host::BackgroundParams::centos7Defaults();

    afa::nvme::FirmwareConfig firmware;
    afa::nand::NandParams nand = simScaledNand();
    afa::nvme::FtlParams ftl;

    afa::pcie::AfaTopologyParams fabric;

    /**
     * Section IV-D tuning: pin every vector to its queue's CPU. The
     * default IRQ spread already does, so this turns irqbalance off
     * (kernel.irq.irqBalanceEnabled).
     */
    bool pinIrqAffinity = false;

    /**
     * Single-event device command fast path (DESIGN.md §9). Off
     * forces every command through the chained event model; results
     * are tick-identical either way (the A/B is the exactness check),
     * only the executed-event count differs.
     */
    bool deviceFastPath = true;

    /**
     * Optional fault plan (nullptr = healthy run). Loading a plan
     * arms the driver's command timeout/retry path and schedules the
     * plan's events via a FaultEngine; without one, every fault hook
     * is idle and the run is tick-identical to a build without them.
     * Shared so parallel sweep workers can reference one parse.
     */
    std::shared_ptr<const afa::fault::FaultPlan> faults;

    /**
     * NAND geometry scaled to the simulated 1 GiB logical space
     * (1,048,576 slots per drive); bandwidth and latency parameters
     * stay production-like. FOB drives hold no FTL map memory at any
     * geometry (map leaves are allocated on first write); the scaling
     * bounds what a written drive holds: its map leaves, block table
     * and GC victim scan.
     */
    static afa::nand::NandParams
    simScaledNand()
    {
        afa::nand::NandParams p;
        p.diesPerChannel = 8;
        p.blocksPerDie = 16;
        return p;
    }
};

/** Host NVMe driver recovery counters (all zero without faults). */
struct DriverStats
{
    std::uint64_t timeouts = 0;  ///< command timeouts fired
    std::uint64_t retries = 0;   ///< resubmissions after backoff
    std::uint64_t aborts = 0;    ///< IOs failed with Status::TimedOut
    /** Completions for commands the driver had already timed out
     *  (e.g. a limping device answering after the retry fired). */
    std::uint64_t staleCompletions = 0;
};

/** The system. Owns every component except the Simulator. */
class AfaSystem
{
  public:
    AfaSystem(afa::sim::Simulator &simulator,
              const AfaSystemParams &params);

    /** Start ticks, balancers, background load and SSD firmware. */
    void start();

    /** The async I/O engine FIO threads drive (the NVMe driver). */
    afa::workload::IoEngine &ioEngine();

    /**
     * Deliver completions without raising MSI-X interrupts: the
     * submitting thread discovers them by polling (Section V's
     * poll-vs-interrupt discussion). Pair with FioJob::polling.
     */
    void setPolledCompletions(bool polled) { polledMode = polled; }

    /**
     * Attach the obs span log to every instrumented layer (fabric,
     * scheduler, IRQ subsystem, each SSD's controller/FTL/NAND);
     * nullptr detaches. FIO threads attach themselves separately via
     * FioThread::attachSpanLog().
     */
    void setSpanLog(afa::obs::SpanLog *log);

    /**
     * Register this system's sources on a telemetry collector
     * (DESIGN.md §13): fabric packet/byte/fast-path/fallback
     * counters, IRQ deliveries, context switches, a driver in-flight
     * gauge, and — on fault runs only, mirroring publishMetrics() —
     * driver recovery and fault bookkeeping series, so healthy
     * timelines never change when fault support is compiled in.
     * Per-device behaviour (nvme/ftl/nand) reaches the timeline
     * through the windowed stage histograms instead.
     */
    void attachTelemetry(afa::obs::Telemetry &telemetry);

    /**
     * Publish end-of-run component counters (fabric, IRQ, scheduler,
     * controllers, FTL, NAND, SMART) into @p registry under the
     * "<component>.<metric>" naming convention. Per-SSD counters are
     * summed across devices.
     */
    void publishMetrics(afa::obs::MetricsRegistry &registry) const;

    /**
     * Register an extra publisher that publishMetrics() invokes after
     * the built-in counters — how components the system does not own
     * (e.g. a raid::RebuildEngine) land in --metrics-json artifacts.
     */
    void addMetricsSource(
        std::function<void(afa::obs::MetricsRegistry &)> source);

    afa::host::Scheduler &scheduler() { return *sched; }
    afa::host::IrqSubsystem &irq() { return *irqSub; }
    afa::host::BackgroundLoad &background() { return *bg; }
    afa::pcie::Fabric &fabric() { return *pcieFabric; }
    afa::nvme::Controller &ssd(unsigned index);
    unsigned ssds() const { return static_cast<unsigned>(ctrls.size()); }
    const AfaSystemParams &params() const { return sysParams; }

    /** Driver recovery counters (timeouts/retries/aborts). */
    const DriverStats &driverStats() const;

    /** Outstanding driver commands, including retries waiting out
     *  their backoff (0 when quiescent). */
    std::size_t outstandingCommands() const;

  private:
    /** The NVMe driver: submission via the fabric, completion via
     *  MSI-X vectors into the IRQ subsystem. */
    class Driver : public afa::workload::IoEngine
    {
      public:
        explicit Driver(AfaSystem &system) : sys(system) {}

        void submit(unsigned cpu,
                    const afa::workload::IoRequest &request,
                    CompleteFn on_device_complete) override;
        std::uint64_t deviceBlocks(unsigned device) const override;

        void onCompletion(unsigned device,
                          const afa::nvme::NvmeCompletion &completion);

        std::size_t outstanding() const { return numOutstanding; }

        const DriverStats &stats() const { return drvStats; }

      private:
        /**
         * One IO, from submit() until its completion callback runs:
         * through every attempt and backoff, and the completion
         * interrupt. The timeout, the backoff and the interrupt
         * handler capture [this, slot].
         */
        struct Pending
        {
            CompleteFn fn;
            afa::workload::IoRequest req; ///< kept for resubmission
            /** Id of the attempt the device owes an answer for: the
             *  attempt serial in the high half, the slot in the low
             *  half. 0 between attempts and once answered, so a late
             *  answer to a timed-out attempt reads as stale. */
            std::uint64_t cmdId = 0;
            unsigned cpu = 0;             ///< submitting CPU
            unsigned attempts = 0;        ///< retries so far
            afa::nvme::Status status = afa::nvme::Status::Success;
            afa::sim::EventHandle timeout;///< armed only with a plan
        };

        /** A submission crossing the fabric: the command as issued,
         *  even if its attempt times out on the way. */
        struct Sqe
        {
            afa::nvme::Controller *ctrl = nullptr;
            afa::nvme::NvmeCommand cmd;
        };

        void startAttempt(std::uint32_t slot);
        void onTimeout(std::uint32_t slot);

        AfaSystem &sys;
        /** Serial of the next attempt (the high half of its id). */
        std::uint64_t nextAttempt = 1;
        afa::sim::Pool<Pending> inFlight;
        afa::sim::Pool<Sqe> sqes;
        /** IOs submitted and neither answered nor aborted (retries
         *  waiting out their backoff included). */
        std::size_t numOutstanding = 0;
        DriverStats drvStats;
    };

    afa::sim::Simulator &sim;
    AfaSystemParams sysParams;

    std::unique_ptr<afa::pcie::Fabric> pcieFabric;
    afa::pcie::AfaTopology fabricTopo;
    std::vector<std::unique_ptr<afa::nand::NandArray>> nands;
    std::vector<std::unique_ptr<afa::nvme::Controller>> ctrls;
    std::unique_ptr<afa::host::Scheduler> sched;
    std::unique_ptr<afa::host::IrqSubsystem> irqSub;
    std::unique_ptr<afa::host::BackgroundLoad> bg;
    std::unique_ptr<Driver> driver;
    std::unique_ptr<afa::fault::FaultEngine> faults;
    std::vector<std::function<void(afa::obs::MetricsRegistry &)>>
        extraMetricsSources;
    afa::obs::SpanLog *spanLogPtr = nullptr;
    bool startedFlag = false;
    bool polledMode = false;
};

} // namespace afa::core

#endif // AFA_CORE_AFA_SYSTEM_HH
