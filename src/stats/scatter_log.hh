/**
 * @file
 * Raw per-sample latency logging for Fig. 10 (the scatter plot that
 * exposed the periodic SMART spikes), plus spike-cluster detection.
 *
 * The paper notes that enabling per-sample logging on all 64 SSDs
 * perturbed the measurement, so they logged 32; we keep the same
 * device-subset workflow in the bench.
 */

#ifndef AFA_STATS_SCATTER_LOG_HH
#define AFA_STATS_SCATTER_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace afa::stats {

using afa::sim::Tick;

/** One logged latency sample. */
struct Sample
{
    std::uint64_t index;   ///< global sample sequence number
    Tick when;             ///< completion time
    Tick latency;          ///< completion latency
    std::uint32_t device;  ///< device id
};

/** A detected cluster of outlier samples (a latency spike). */
struct SpikeCluster
{
    Tick start;                ///< first outlier completion time
    Tick end;                  ///< last outlier completion time
    std::uint64_t samples;     ///< outliers in the cluster
    Tick peakLatency;          ///< worst latency in the cluster
    std::uint64_t firstIndex;  ///< sample index of first outlier
};

/**
 * Bounded log of raw samples with simple spike analysis.
 */
class ScatterLog
{
  public:
    explicit ScatterLog(std::size_t capacity = 8u << 20)
        : maxSamples(capacity), nextIndex(0), numDropped(0)
    {
    }

    /** Record one completion. */
    void record(Tick when, Tick latency, std::uint32_t device);

    /** All retained samples in completion order. */
    const std::vector<Sample> &samples() const { return buf; }

    /**
     * Group outliers into clusters: consecutive outliers closer than
     * @p gap in completion time belong to the same cluster.
     */
    std::vector<SpikeCluster> clusters(Tick threshold, Tick gap) const;

    /**
     * Median interval between cluster starts; 0 with < 2 clusters.
     * Used to verify the periodicity of SMART activity.
     */
    Tick clusterPeriod(Tick threshold, Tick gap) const;

    /** Render "index latency_us device" lines (the scatter series). */
    std::string toText(std::size_t stride = 1) const;

    std::uint64_t dropped() const { return numDropped; }
    std::size_t size() const { return buf.size(); }
    void clear();

  private:
    std::vector<Sample> buf;
    std::size_t maxSamples;
    std::uint64_t nextIndex;
    std::uint64_t numDropped;
};

} // namespace afa::stats

#endif // AFA_STATS_SCATTER_LOG_HH
