#include "nand/nand_array.hh"

#include <algorithm>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::nand {

NandArray::NandArray(afa::sim::Simulator &simulator,
                     std::string array_name,
                     const NandParams &nand_params)
    : SimObject(simulator, std::move(array_name)),
      nandParams(nand_params)
{
    if (nandParams.channels == 0 || nandParams.diesPerChannel == 0)
        afa::sim::fatal("%s: NAND geometry must be >= 1x1",
                        name().c_str());
    dieBusy.assign(nandParams.totalDies(), 0);
    channelBusy.assign(nandParams.channels, 0);
}

std::size_t
NandArray::dieIndex(const PageAddr &addr) const
{
    return addr.channel * nandParams.diesPerChannel + addr.die;
}

void
NandArray::checkAddr(const PageAddr &addr) const
{
    if (addr.channel >= nandParams.channels ||
        addr.die >= nandParams.diesPerChannel ||
        addr.block >= nandParams.blocksPerDie ||
        addr.page >= nandParams.pagesPerBlock)
        afa::sim::panic("%s: bad NAND address ch%u die%u blk%u pg%u",
                        name().c_str(), addr.channel, addr.die,
                        addr.block, addr.page);
}

Tick
NandArray::transferTime(afa::sim::Bytes bytes) const
{
    return afa::sim::transferTicks(bytes, nandParams.channelMBps * 1e6);
}

PageAddr
NandArray::addrForDie(unsigned linear_die, std::uint32_t block,
                      std::uint32_t page) const
{
    if (linear_die >= nandParams.totalDies())
        afa::sim::panic("%s: linear die %u out of range",
                        name().c_str(), linear_die);
    return PageAddr{linear_die / nandParams.diesPerChannel,
                    linear_die % nandParams.diesPerChannel, block, page};
}

Tick
NandArray::readAt(const PageAddr &addr, std::uint32_t bytes,
                  std::uint64_t io)
{
    checkAddr(addr);
    std::size_t di = dieIndex(addr);
    // Die occupies for tR...
    Tick t_r = static_cast<Tick>(
        rng().lognormal(static_cast<double>(nandParams.readLatency),
                        nandParams.readSigma));
    Tick die_start = std::max(now(), dieBusy[di]);
    Tick die_end = die_start + t_r;
    dieBusy[di] = die_end;
    nandStats.dieBusyTime += t_r;
    // ...then the channel for the data-out transfer.
    Tick xfer = transferTime(afa::sim::Bytes{bytes});
    Tick ch_start = std::max(die_end, channelBusy[addr.channel]);
    Tick ch_end = ch_start + xfer;
    channelBusy[addr.channel] = ch_end;
    nandStats.channelBusyTime += xfer;
    ++nandStats.reads;
    if (spanLog && spanLog->wants(afa::obs::Category::Nand))
        spanLog->record(afa::obs::Stage::NandRead, io, die_start,
                        ch_end, spanTrack, 0,
                        addr.channel * nandParams.diesPerChannel +
                            addr.die);
    return ch_end;
}

Tick
NandArray::read(const PageAddr &addr, std::uint32_t bytes, DoneFn done,
                std::uint64_t io)
{
    Tick ch_end = readAt(addr, bytes, io);
    at(ch_end, std::move(done));
    return ch_end;
}

Tick
NandArray::program(const PageAddr &addr, std::uint32_t bytes,
                   DoneFn done)
{
    checkAddr(addr);
    std::size_t di = dieIndex(addr);
    // Data-in over the channel first...
    Tick xfer = transferTime(afa::sim::Bytes{bytes});
    Tick ch_start = std::max(now(), channelBusy[addr.channel]);
    Tick ch_end = ch_start + xfer;
    channelBusy[addr.channel] = ch_end;
    nandStats.channelBusyTime += xfer;
    // ...then the die programs.
    Tick t_prog = static_cast<Tick>(rng().lognormal(
        static_cast<double>(nandParams.programLatency),
        nandParams.programSigma));
    Tick die_start = std::max(ch_end, dieBusy[di]);
    Tick die_end = die_start + t_prog;
    dieBusy[di] = die_end;
    nandStats.dieBusyTime += t_prog;
    ++nandStats.programs;
    at(die_end, std::move(done));
    return die_end;
}

Tick
NandArray::erase(const PageAddr &addr, DoneFn done)
{
    checkAddr(addr);
    std::size_t di = dieIndex(addr);
    Tick t_erase = static_cast<Tick>(rng().lognormal(
        static_cast<double>(nandParams.eraseLatency),
        nandParams.eraseSigma));
    Tick die_start = std::max(now(), dieBusy[di]);
    Tick die_end = die_start + t_erase;
    dieBusy[di] = die_end;
    nandStats.dieBusyTime += t_erase;
    ++nandStats.erases;
    at(die_end, std::move(done));
    return die_end;
}

Tick
NandArray::dieFreeAt(unsigned channel, unsigned die) const
{
    return dieBusy[channel * nandParams.diesPerChannel + die];
}

} // namespace afa::nand
