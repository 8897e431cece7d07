/**
 * @file
 * NAND flash package model: channels of dies with read/program/erase
 * timing and per-channel bus transfer arbitration.
 *
 * Used by the FTL for mapped (written) data; fresh-out-of-box reads
 * never reach NAND (the controller answers unmapped reads with zero
 * fill), matching the paper's FOB methodology.
 */

#ifndef AFA_NAND_NAND_ARRAY_HH
#define AFA_NAND_NAND_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::nand {

using afa::sim::Tick;

/** Timing and geometry of the NAND package (3D MLC-class defaults). */
struct NandParams
{
    unsigned channels = 8;
    unsigned diesPerChannel = 4;
    std::uint32_t pageBytes = 16384;
    std::uint32_t pagesPerBlock = 256;
    std::uint32_t blocksPerDie = 1024;

    Tick readLatency = afa::sim::usec(50);    ///< tR median
    double readSigma = 0.08;                  ///< lognormal spread
    Tick programLatency = afa::sim::usec(1300); ///< tProg median
    double programSigma = 0.05;
    Tick eraseLatency = afa::sim::msec(4);    ///< tBERS median
    double eraseSigma = 0.05;
    double channelMBps = 640.0;               ///< bus bandwidth

    unsigned totalDies() const { return channels * diesPerChannel; }
};

/** Physical page address within the package. */
struct PageAddr
{
    unsigned channel;
    unsigned die;
    std::uint32_t block;
    std::uint32_t page;
};

/** Per-die / per-channel utilisation counters. */
struct NandStats
{
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
    Tick dieBusyTime = 0;
    Tick channelBusyTime = 0;
};

/**
 * Event-driven NAND package.
 *
 * Each die is a serialising resource (one operation at a time); each
 * channel bus serialises data transfers. A read occupies the die for
 * tR, then the channel for the transfer; programs occupy the channel
 * for the data-in transfer, then the die for tProg.
 */
class NandArray : public afa::sim::SimObject
{
  public:
    /** Completion callback; scheduled as the completion event itself,
     *  so a closure of a pointer and indices allocates nothing. */
    using DoneFn = afa::sim::EventFn;

    NandArray(afa::sim::Simulator &simulator, std::string array_name,
              const NandParams &nand_params);

    /**
     * Read @p bytes from a page; @p done fires at data-out end (the
     * returned tick). @p io tags the obs span, when one is recorded.
     */
    Tick read(const PageAddr &addr, std::uint32_t bytes, DoneFn done,
              std::uint64_t io = 0);

    /**
     * Program a page; @p done fires when tProg completes (the
     * returned tick).
     */
    Tick program(const PageAddr &addr, std::uint32_t bytes,
                 DoneFn done);

    /**
     * Erase a block; @p done fires when tBERS completes (the
     * returned tick).
     */
    Tick erase(const PageAddr &addr, DoneFn done);

    /** Attach the span log; spans use @p track (the owning SSD's). */
    void
    setSpanLog(afa::obs::SpanLog *log, std::uint16_t track)
    {
        spanLog = log;
        spanTrack = track;
    }

    /**
     * Map a linear die index (0..totalDies-1) to a channel/die pair;
     * convenience for striping FTLs.
     */
    PageAddr
    addrForDie(unsigned linear_die, std::uint32_t block,
               std::uint32_t page) const;

    const NandParams &params() const { return nandParams; }
    const NandStats &stats() const { return nandStats; }

    /** Earliest time the given die is free (for tests). */
    Tick dieFreeAt(unsigned channel, unsigned die) const;

  private:
    NandParams nandParams;
    // busy horizons
    std::vector<Tick> dieBusy;     // [channel * diesPerChannel + die]
    std::vector<Tick> channelBusy; // [channel]
    NandStats nandStats;
    afa::obs::SpanLog *spanLog = nullptr;
    std::uint16_t spanTrack = 0;

    /** read()'s claims: the die for tR, then the channel for the
     *  data-out, from now(); returns the data-out end. */
    Tick readAt(const PageAddr &addr, std::uint32_t bytes,
                std::uint64_t io);
    std::size_t dieIndex(const PageAddr &addr) const;
    void checkAddr(const PageAddr &addr) const;
    Tick transferTime(afa::sim::Bytes bytes) const;
};

} // namespace afa::nand

#endif // AFA_NAND_NAND_ARRAY_HH
