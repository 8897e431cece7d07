/**
 * @file
 * Firmware configuration of the modelled NVMe SSD, including the
 * paper's "experimental firmware" switch that disables SMART data
 * update/save (Section IV-E).
 *
 * Timing defaults are calibrated so a single drive reproduces the
 * Table I spec (160k/30k random IOPS, 1700/750 MB/s sequential) and
 * the paper's ~25 us QD1 FOB read anchor; see bench/table1_ssd_spec.
 */

#ifndef AFA_NVME_FIRMWARE_CONFIG_HH
#define AFA_NVME_FIRMWARE_CONFIG_HH

#include "sim/types.hh"

namespace afa::nvme {

using afa::sim::Tick;

/** SMART housekeeping behaviour (Section IV-E). */
struct SmartConfig
{
    /** Master switch; the experimental firmware sets this false. */
    bool enabled = true;

    /** Period between SMART data collections. */
    Tick period = afa::sim::sec(30);

    /** Median duration of a SMART data *update* stall. */
    Tick updateDuration = afa::sim::usec(520);

    /** Every Nth collection also *saves* to NAND (longer stall). */
    unsigned saveEvery = 4;

    /** Median duration of a SMART data *save* stall. */
    Tick saveDuration = afa::sim::usec(545);

    /** Lognormal sigma applied to stall durations. The firmware's
     *  housekeeping is near-deterministic, which is why the paper's
     *  fully tuned stddev(max) collapses to ~4 us. */
    double durationSigma = 0.01;
};

/** Controller/firmware timing model. */
struct FirmwareConfig
{
    /** Per-command pipeline (lookup, DMA setup) service time; caps
     *  random-read IOPS at 1/6.25us = 160k (Table I). */
    Tick readProcTime = afa::sim::nsec(6250);

    /** FOB (unmapped) read media latency: lognormal median. */
    Tick fobReadLatency = afa::sim::usec(10);

    /** Lognormal sigma of the FOB read latency. */
    double fobReadSigma = 0.06;

    /**
     * Probability a read hits a firmware hiccup (read-retry class
     * event); adds a Pareto-tailed penalty. This is what keeps the
     * per-SSD *range* of max latency wide even with SMART disabled
     * (Fig. 11).
     */
    double hiccupProbability = 4e-6;
    Tick hiccupScale = afa::sim::usec(20);  ///< Pareto xm
    double hiccupShape = 1.6;               ///< Pareto alpha
    Tick hiccupCap = afa::sim::usec(70);    ///< clamp

    /** Internal buffer<->host DMA engine bandwidth. */
    double internalMBps = 1700.0;

    /** Extra FTL cost serialised per *random* write. */
    Tick randomWriteOverhead = afa::sim::usec(33);

    /** Sequential write drain bandwidth (write pipe server). */
    double writeMBps = 750.0;

    SmartConfig smart;
};

} // namespace afa::nvme

#endif // AFA_NVME_FIRMWARE_CONFIG_HH
