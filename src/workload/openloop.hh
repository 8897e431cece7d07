/**
 * @file
 * The open-loop sustained-traffic engine (DESIGN.md §14).
 *
 * Closed-loop FIO threads measure an unloaded array: one request per
 * thread in flight, so offered load always equals completed load. An
 * OpenLoopEngine instead generates arrivals on their own clock
 * (Poisson or bursty, see arrival.hh) at a configured aggregate
 * ops/sec, spread over a few submitter streams with zipfian hot-spot
 * device addressing and a mixed read/write ratio. Arrivals queue in a
 * bounded per-stream backlog, submit through the same IoEngine and
 * host scheduler path as FIO (submit/reap CPU costs, IPIs on remote
 * completion), and measure *response time* — arrival to reap — so
 * queueing delay, saturation, and the throughput–latency frontier
 * become visible.
 *
 * Determinism contract: one named-fork Rng per stream drives every
 * draw (gaps, device, LBA, op mix), so the draw order follows the
 * engine's event order alone and is independent of --jobs and
 * telemetry. Backlog overflow drops are counted exactly:
 *   arrivals == submitted + dropped + finalBacklog
 *   submitted == completed + inflightAtEnd
 * hold for every stream, at any load, and result() checks both.
 */

#ifndef AFA_WORKLOAD_OPENLOOP_HH
#define AFA_WORKLOAD_OPENLOOP_HH

#include <array>
#include <deque>
#include <vector>

#include "host/scheduler.hh"
#include "obs/telemetry.hh"
#include "sim/pool.hh"
#include "sim/sim_object.hh"
#include "stats/histogram.hh"
#include "workload/arrival.hh"
#include "workload/io_engine.hh"

namespace afa::obs {
class SpanLog;
class MetricsRegistry;
} // namespace afa::obs

namespace afa::workload {

/** Configuration of the whole engine. */
struct OpenLoopParams
{
    /** Arrival clock; ratePerSec is the AGGREGATE rate, split evenly
     *  over the streams. */
    ArrivalParams arrival;

    /** Independent submitter streams (each its own scheduler task,
     *  arrival clock, backlog and Rng fork). */
    unsigned streams = 4;

    /** Fraction of operations that are reads (rest are writes). */
    double readFraction = 1.0;

    /** Zipf theta for device selection in [0, 1); 0 = uniform. */
    double zipfTheta = 0.0;

    /** Arrivals stop this long after start (the measurement). */
    Tick duration = afa::sim::sec(1);

    /** Per-stream backlog bound; arrivals beyond it are dropped and
     *  counted (load shedding, so saturation cannot OOM). */
    std::size_t maxBacklog = std::size_t(1) << 20;

    /** CPUs the streams are pinned to, round-robin. Empty = the
     *  geometry's FIO CPU list (filled by the experiment runner). */
    std::vector<unsigned> cpus;

    /** SCHED_FIFO priority for the stream tasks (0 = CFS). */
    int rtPriority = 0;
};

/** Exact per-stream accounting (totals() sums them). */
struct OpenLoopStreamStats
{
    std::uint64_t arrivals = 0;  ///< generated by the arrival clock
    std::uint64_t submitted = 0; ///< left the backlog into the driver
    std::uint64_t completed = 0; ///< reaped (errors included)
    std::uint64_t dropped = 0;   ///< shed on backlog overflow
    std::uint64_t errors = 0;    ///< completed unsuccessfully
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;

    /** Whole-run ACT ladder: ops whose response time exceeded
     *  obs::actThresholdTicks(k) (1/2/4/.../128 ms). */
    std::array<std::uint64_t, afa::obs::kActThresholds> exceed{};

    std::uint64_t backlogPeak = 0;   ///< deepest backlog observed
    std::uint64_t finalBacklog = 0;  ///< ops never submitted
    std::uint64_t inflightAtEnd = 0; ///< submitted, never reaped

    void add(const OpenLoopStreamStats &o);
};

/**
 * Check both balances of every stream (see the file comment); the
 * first stream that breaks one fails through panic(), named by its
 * index with its counts.
 */
void checkOpenLoopBalance(const std::vector<OpenLoopStreamStats> &streams);

/** Mergeable open-loop slice of an ExperimentResult. */
struct OpenLoopResult
{
    OpenLoopStreamStats totals;
    std::vector<OpenLoopStreamStats> perStream;

    /** Whole-run response-time histogram (arrival -> reap, ticks). */
    afa::stats::Histogram responseHist;

    /** Sum of measurement durations merged in (replicas add). */
    Tick measuredTicks = 0;

    bool empty() const { return measuredTicks == 0; }
    double measuredSeconds() const;
    double offeredPerSec() const;   ///< arrivals / measured time
    double completedPerSec() const; ///< completions / measured time

    /** Fold another replica in (counters add, histograms merge). */
    void merge(const OpenLoopResult &other);
};

/** The engine: all streams, one per-device histogram set. */
class OpenLoopEngine : public afa::sim::SimObject
{
  public:
    OpenLoopEngine(afa::sim::Simulator &simulator,
                   std::string engine_name,
                   afa::host::Scheduler &scheduler, IoEngine &engine,
                   unsigned device_count, const OpenLoopParams &params);

    /** Arm the arrival clocks at @p start_at; arrivals stop at
     *  start_at + duration, in-flight work drains after. */
    void start(Tick start_at = 0);

    /** True once arrivals stopped, no CPU work is queued and every
     *  submitted IO has been reaped. At saturation the backlog is
     *  *not* waited for — its depth is the measurement. */
    bool finished() const;

    /** Whole-run response-time histogram (ticks). */
    const afa::stats::Histogram &histogram() const { return hist; }

    /** Response-time histogram of one device's ops (ticks). */
    const afa::stats::Histogram &deviceHistogram(unsigned device) const
    {
        return deviceHist[device];
    }

    /** Per-stream accounting snapshots, stream order. */
    std::vector<OpenLoopStreamStats> streamStats() const;

    /** Sum of the per-stream stats. */
    OpenLoopStreamStats totals() const;

    /** Bundle everything into the mergeable result slice, after
     *  checking every stream's balances. */
    OpenLoopResult result() const;

    /** Attach the obs span log; nullptr detaches. SubmitQueue spans
     *  cover arrival->submit, Complete spans arrival->reap. */
    void attachSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

    /** Register openloop.* counter/gauge sources. */
    void registerTelemetry(afa::obs::Telemetry &telemetry);

    /** Publish openloop.* counters into an end-of-run registry. */
    void publishMetrics(afa::obs::MetricsRegistry &registry) const;

    const OpenLoopParams &params() const { return p; }

  private:
    /** One arrival queued behind the submitter. */
    struct QueuedOp
    {
        Tick arrivalTick;
        IoRequest req;
    };

    /** One submitted, not-yet-reaped IO. Its completion, wake and
     *  reap callbacks capture [this, flight index]. */
    struct Flight
    {
        Tick arrivalTick = 0;
        std::uint64_t tag = 0;
        unsigned stream = 0;
        unsigned device = 0;
        std::uint32_t bytes = 0;
        bool failed = false;
    };

    struct Stream
    {
        afa::host::TaskId task{};
        ArrivalProcess arrival;
        std::deque<QueuedOp> backlog;
        bool submitQueued = false;
        bool clockStopped = false; ///< arrival clock ran past endTime
        std::uint64_t inflight = 0;
        std::uint32_t seq = 0;
        OpenLoopStreamStats stats;

        explicit Stream(const ArrivalParams &ap) : arrival(ap) {}
    };

    afa::host::Scheduler &sched;
    IoEngine &engine;
    unsigned devices;
    OpenLoopParams p;
    ZipfGenerator zipf;

    std::vector<Stream> streams;
    // Forked named streams, parallel to `streams` (assigned from
    // rng().fork(), never freshly constructed: the arrival-rng rule).
    std::vector<afa::sim::Rng> streamRng;
    std::vector<std::uint64_t> deviceBlocks;

    afa::stats::Histogram hist;
    std::vector<afa::stats::Histogram> deviceHist;

    afa::sim::Pool<Flight> flights;

    afa::obs::SpanLog *spanLog = nullptr;

    Tick endTime = 0;
    bool started = false;

    void scheduleArrival(unsigned s);
    void onArrival(unsigned s);
    void kickSubmit(unsigned s);
    void issueFront(unsigned s);
    void onDeviceComplete(std::uint32_t flight, const IoResult &result);
    void finishOp(std::uint32_t flight);
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_OPENLOOP_HH
