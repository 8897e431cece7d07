#include "raid/volume.hh"

#include <algorithm>
#include <memory>

#include "nvme/command.hh"
#include "sim/logging.hh"

namespace afa::raid {

using afa::workload::IoRequest;
using afa::workload::IoResult;

namespace {

/** Fan-out join: completes the client when the last member does,
 *  carrying the last handler CPU and the worst status seen. */
struct Join
{
    std::size_t remaining = 0;
    IoResult result;

    void
    fold(const IoResult &member_result)
    {
        result.cpu = member_result.cpu;
        if (!member_result.ok())
            result.status = member_result.status;
    }
};

} // namespace

StripedVolume::StripedVolume(afa::sim::Simulator &simulator,
                             std::string volume_name,
                             afa::workload::IoEngine &engine,
                             std::vector<unsigned> member_devices,
                             std::uint32_t strip_blocks)
    : SimObject(simulator, std::move(volume_name)), inner(engine),
      members(std::move(member_devices)), stripBlocks(strip_blocks)
{
    if (members.empty())
        afa::sim::fatal("%s: a volume needs at least one member",
                        name().c_str());
    if (stripBlocks == 0)
        afa::sim::fatal("%s: strip size must be >= 1 block",
                        name().c_str());
}

std::pair<unsigned, std::uint64_t>
StripedVolume::mapBlock(std::uint64_t volume_lba) const
{
    std::uint64_t strip = volume_lba / stripBlocks;
    std::uint64_t within = volume_lba % stripBlocks;
    unsigned member = static_cast<unsigned>(strip % members.size());
    std::uint64_t member_strip = strip / members.size();
    return {member, member_strip * stripBlocks + within};
}

std::uint64_t
StripedVolume::deviceBlocks(unsigned device) const
{
    if (device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    std::uint64_t smallest = inner.deviceBlocks(members[0]);
    for (unsigned m : members)
        smallest = std::min(smallest, inner.deviceBlocks(m));
    return smallest * members.size();
}

void
StripedVolume::submit(unsigned cpu, const IoRequest &request,
                      CompleteFn on_device_complete)
{
    if (request.device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    const std::uint64_t blocks =
        request.bytes / afa::nvme::kLogicalBlockBytes;
    if (blocks == 0)
        afa::sim::panic("%s: zero-length volume I/O", name().c_str());
    ++volStats.clientIos;
    if (request.op == afa::nvme::Op::Write)
        ++volStats.writes;
    else
        ++volStats.reads;

    // Coalesce the block run into contiguous per-member extents
    // (member LBAs ascend monotonically as the volume LBA does).
    struct SubIo
    {
        unsigned member;
        std::uint64_t lba;
        std::uint32_t blocks;
    };
    std::vector<SubIo> subs;
    std::vector<int> open(members.size(), -1); // member -> subs index
    for (std::uint64_t b = 0; b < blocks; ++b) {
        auto [member, lba] = mapBlock(request.lba + b);
        int idx = open[member];
        if (idx >= 0 &&
            subs[idx].lba + subs[idx].blocks == lba) {
            ++subs[idx].blocks;
        } else {
            open[member] = static_cast<int>(subs.size());
            subs.push_back(SubIo{member, lba, 1});
        }
    }

    // Fan out; the client completes with the slowest member (the
    // tail-at-scale join). The reported handler CPU is the last
    // completion's, matching what a reaping thread would observe.
    auto join = std::make_shared<Join>();
    join->remaining = subs.size();
    volStats.memberIos += subs.size();
    for (const SubIo &sub : subs) {
        IoRequest child;
        child.device = members[sub.member];
        child.op = request.op;
        child.lba = sub.lba;
        child.bytes = sub.blocks * afa::nvme::kLogicalBlockBytes;
        child.tag = request.tag;
        inner.submit(cpu, child,
                     [join, on_device_complete](
                         const IoResult &result) {
                         join->fold(result);
                         if (--join->remaining == 0)
                             on_device_complete(join->result);
                     });
    }
}

// ---------------------------------------------------------------------
// ParityVolume
// ---------------------------------------------------------------------

ParityVolume::ParityVolume(afa::sim::Simulator &simulator,
                           std::string volume_name,
                           afa::workload::IoEngine &engine,
                           std::vector<unsigned> member_devices,
                           std::uint32_t strip_blocks)
    : SimObject(simulator, std::move(volume_name)), inner(engine),
      members(std::move(member_devices)), stripBlocks(strip_blocks)
{
    if (members.size() < 3)
        afa::sim::fatal("%s: a parity volume needs >= 3 members",
                        name().c_str());
    if (stripBlocks == 0)
        afa::sim::fatal("%s: strip size must be >= 1 block",
                        name().c_str());
    failedMembers.assign(members.size(), false);
}

void
ParityVolume::setMemberFailed(unsigned member_index, bool failed)
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    failedMembers[member_index] = failed;
}

bool
ParityVolume::memberFailed(unsigned member_index) const
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    return failedMembers[member_index];
}

ParityVolume::BlockMap
ParityVolume::mapBlock(std::uint64_t volume_lba) const
{
    const std::uint64_t width = members.size();
    const std::uint64_t data_width = width - 1;
    std::uint64_t strip = volume_lba / stripBlocks;
    std::uint64_t within = volume_lba % stripBlocks;
    std::uint64_t stripe = strip / data_width;
    unsigned slot = static_cast<unsigned>(strip % data_width);
    unsigned parity = static_cast<unsigned>(stripe % width);
    unsigned data = slot < parity ? slot : slot + 1;
    return BlockMap{data, parity, stripe * stripBlocks + within};
}

std::uint64_t
ParityVolume::deviceBlocks(unsigned device) const
{
    if (device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    std::uint64_t smallest = inner.deviceBlocks(members[0]);
    for (unsigned m : members)
        smallest = std::min(smallest, inner.deviceBlocks(m));
    return smallest * (members.size() - 1);
}

void
ParityVolume::readBlock(unsigned cpu, const BlockMap &map,
                        std::uint64_t tag, CompleteFn on_done)
{
    IoRequest child;
    child.op = afa::nvme::Op::Read;
    child.lba = map.memberLba;
    child.bytes = afa::nvme::kLogicalBlockBytes;
    child.tag = tag;
    if (!failedMembers[map.dataMember]) {
        child.device = members[map.dataMember];
        ++volStats.memberIos;
        inner.submit(
            cpu, child,
            [this, cpu, map, tag,
             cb = std::move(on_done)](const IoResult &result) mutable {
                if (result.ok()) {
                    cb(result);
                    return;
                }
                // Fail the member over and reconstruct instead.
                setMemberFailed(map.dataMember, true);
                readBlock(cpu, map, tag, std::move(cb));
            });
        return;
    }
    // Degraded read: XOR the stripe row of every surviving member
    // (including parity) back together; the join completes with the
    // slowest survivor, which is what makes a degraded array slow.
    ++volStats.degradedReads;
    auto join = std::make_shared<Join>();
    join->remaining = members.size() - 1;
    for (unsigned m = 0; m < members.size(); ++m) {
        if (m == map.dataMember)
            continue;
        child.device = members[m];
        ++volStats.memberIos;
        inner.submit(cpu, child,
                     [join, on_done](const IoResult &result) {
                         join->fold(result);
                         if (--join->remaining == 0)
                             on_done(join->result);
                     });
    }
}

void
ParityVolume::writeBlock(unsigned cpu, const BlockMap &map,
                         std::uint64_t tag, CompleteFn on_done)
{
    IoRequest io;
    io.lba = map.memberLba;
    io.bytes = afa::nvme::kLogicalBlockBytes;
    io.tag = tag;
    const bool data_ok = !failedMembers[map.dataMember];
    const bool parity_ok = !failedMembers[map.parityMember];
    if (!data_ok || !parity_ok) {
        if (!data_ok && !parity_ok) {
            ++volStats.failedIos;
            after(0, [cpu, cb = std::move(on_done)] {
                cb(IoResult{cpu, afa::nvme::Status::Aborted});
            });
            return;
        }
        // Degraded write: no old copy to fold in; the survivor of the
        // (data, parity) pair absorbs the update directly.
        io.op = afa::nvme::Op::Write;
        io.device = members[data_ok ? map.dataMember
                                    : map.parityMember];
        ++volStats.memberIos;
        inner.submit(cpu, io, std::move(on_done));
        return;
    }
    // The RAID-5 small-write penalty: read old data + old parity,
    // then write new data + new parity (two joins back to back).
    io.op = afa::nvme::Op::Read;
    auto read_join = std::make_shared<Join>();
    read_join->remaining = 2;
    auto phase2 = [this, cpu, map, io,
                   on_done](const IoResult &read_result) mutable {
        if (!read_result.ok()) {
            on_done(read_result);
            return;
        }
        io.op = afa::nvme::Op::Write;
        auto write_join = std::make_shared<Join>();
        write_join->remaining = 2;
        for (unsigned m : {map.dataMember, map.parityMember}) {
            io.device = members[m];
            ++volStats.memberIos;
            inner.submit(cpu, io,
                         [write_join, on_done](const IoResult &result) {
                             write_join->fold(result);
                             if (--write_join->remaining == 0)
                                 on_done(write_join->result);
                         });
        }
    };
    for (unsigned m : {map.dataMember, map.parityMember}) {
        io.device = members[m];
        ++volStats.memberIos;
        inner.submit(cpu, io,
                     [read_join, phase2](const IoResult &result) mutable {
                         read_join->fold(result);
                         if (--read_join->remaining == 0)
                             phase2(read_join->result);
                     });
    }
}

void
ParityVolume::submit(unsigned cpu, const IoRequest &request,
                     CompleteFn on_device_complete)
{
    if (request.device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    const std::uint64_t blocks =
        request.bytes / afa::nvme::kLogicalBlockBytes;
    if (blocks == 0)
        afa::sim::panic("%s: zero-length volume I/O", name().c_str());
    ++volStats.clientIos;
    const bool is_write = request.op == afa::nvme::Op::Write;
    if (is_write)
        ++volStats.writes;
    else
        ++volStats.reads;
    auto join = std::make_shared<Join>();
    join->remaining = blocks;
    CompleteFn per_block = [join, on_device_complete =
                                      std::move(on_device_complete)](
                               const IoResult &result) {
        join->fold(result);
        if (--join->remaining == 0)
            on_device_complete(join->result);
    };
    for (std::uint64_t b = 0; b < blocks; ++b) {
        BlockMap map = mapBlock(request.lba + b);
        if (is_write)
            writeBlock(cpu, map, request.tag, per_block);
        else
            readBlock(cpu, map, request.tag, per_block);
    }
}

} // namespace afa::raid
