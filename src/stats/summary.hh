/**
 * @file
 * The FIO-style completion-latency report used throughout the paper:
 * average latency plus the percentile ladder from 2-nines (99%) to
 * 6-nines (99.9999%) and the 100th (maximum) latency, per device.
 */

#ifndef AFA_STATS_SUMMARY_HH
#define AFA_STATS_SUMMARY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace afa::stats {

/** The percentile ladder the paper plots (Figs. 6-9, 11-14). */
struct NinesLadder
{
    /** Number of plotted points: avg, 2..6 nines, max. */
    static constexpr std::size_t kPoints = 7;

    /** Quantiles of the ladder entries (avg encoded as -1). */
    static const std::array<double, kPoints> &quantiles();

    /** Human-readable labels: "avg", "99%", ..., "99.9999%", "max". */
    static const std::array<const char *, kPoints> &labels();
};

/**
 * Per-device latency summary (values in microseconds, like FIO's
 * clat report).
 */
struct LatencySummary
{
    std::string device;          ///< e.g. "nvme17"
    std::uint64_t samples = 0;   ///< completed I/Os
    double meanUs = 0.0;
    double stddevUs = 0.0;
    double minUs = 0.0;
    double maxUs = 0.0;
    /** Ladder values: [avg, p99, p99.9, p99.99, p99.999, p99.9999, max]. */
    std::array<double, NinesLadder::kPoints> ladderUs{};

    /** Build a summary from a histogram of tick-valued samples. */
    static LatencySummary fromHistogram(const std::string &device,
                                        const Histogram &hist);
};

/** Aggregate (mean and stddev per ladder point) across devices. */
struct LadderAggregate
{
    std::size_t devices = 0;
    std::array<double, NinesLadder::kPoints> meanUs{};
    std::array<double, NinesLadder::kPoints> stddevUs{};
    std::array<double, NinesLadder::kPoints> minUs{};
    std::array<double, NinesLadder::kPoints> maxUs{};

    /** Compute across a set of per-device summaries (Figs. 12/14). */
    static LadderAggregate across(
        const std::vector<LatencySummary> &summaries);
};

} // namespace afa::stats

#endif // AFA_STATS_SUMMARY_HH
