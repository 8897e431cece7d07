/**
 * @file
 * The allocation budget of the IO path (DESIGN.md §9, "Allocation
 * budget"): in steady state, an IO's events, packets, interrupts and
 * commands keep their state in pooled records, so the heap sees
 * almost no traffic per IO.
 *
 * This binary replaces the global operator new with a counting one
 * (this file only; nothing in src/ knows about it). Each shape builds
 * a run on core::Testbed, runs a warm-up slice so every pool reaches
 * its working size, and then divides the allocations of a measured
 * slice by the IOs completed in it. The sanitizer jobs leave this
 * binary out: their runtimes own the allocator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/experiment.hh"
#include "core/geometry.hh"
#include "core/tuning.hh"
#include "sim/logging.hh"
#include "workload/fio_thread.hh"
#include "workload/openloop.hh"

namespace {

std::uint64_t allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using afa::core::ExperimentParams;
using afa::core::Geometry;
using afa::core::Testbed;
using afa::core::TuningConfig;
using afa::sim::msec;
using afa::sim::Tick;

/**
 * Allocations per completed IO over [@p warmup, @p warmup +
 * @p measured) of a run built the way ExperimentRunner builds it
 * (one geometry run). Prints the figure under @p label.
 */
double
allocationsPerIo(const char *label, const ExperimentParams &params,
                 Tick warmup, Tick measured)
{
    afa::host::CpuTopology topo(params.topology);
    Geometry geometry(topo, params.ssds);
    const TuningConfig tuning =
        TuningConfig::forProfile(params.profile, geometry);
    Testbed tb(params, tuning, params.seed);
    tb.precondition();
    afa::core::AfaSystem &system = tb.system();

    std::unique_ptr<afa::workload::OpenLoopEngine> engine;
    std::vector<std::unique_ptr<afa::workload::FioThread>> threads;
    if (params.openLoop) {
        afa::workload::OpenLoopParams ol = *params.openLoop;
        ol.duration = params.runtime;
        ol.rtPriority = tuning.fioRtPriority;
        ol.cpus = geometry.fioCpus();
        engine = std::make_unique<afa::workload::OpenLoopEngine>(
            tb.sim(), "openloop", system.scheduler(), system.ioEngine(),
            params.ssds, ol);
    } else {
        const std::vector<afa::core::Run> runs =
            geometry.runsFor(params.variant);
        for (const afa::core::Placement &p : runs.front()) {
            afa::workload::FioJob job = params.job;
            job.runtime = params.runtime;
            job.cpusAllowed = afa::host::CpuMask(1) << p.cpu;
            job.rtPriority = tuning.fioRtPriority;
            job.name = afa::sim::strfmt("fio-nvme%u", p.device);
            threads.push_back(std::make_unique<afa::workload::FioThread>(
                tb.sim(), job.name, system.scheduler(),
                system.ioEngine(), p.device, job));
        }
    }
    tb.start();
    if (engine)
        engine->start(0);
    for (auto &t : threads)
        t->start(0);

    auto completed = [&] {
        if (engine)
            return engine->totals().completed;
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t->stats().completed;
        return n;
    };
    tb.sim().run(warmup);
    const std::uint64_t allocs_before = allocations;
    const std::uint64_t ios_before = completed();
    tb.sim().run(warmup + measured);
    const std::uint64_t allocs = allocations - allocs_before;
    const std::uint64_t ios = completed() - ios_before;
    EXPECT_GT(ios, 0u) << label;
    const double per_io =
        static_cast<double>(allocs) / static_cast<double>(ios ? ios : 1);
    std::printf("%s: %llu allocations over %llu IOs = %.3f per IO\n",
                label, (unsigned long long)allocs,
                (unsigned long long)ios, per_io);
    return per_io;
}

/** 64 closed-loop QD1 randread threads, Default host (Fig. 6). */
ExperimentParams
fig06Shape()
{
    ExperimentParams p;
    p.ssds = 64;
    p.runtime = afa::sim::sec(1);
    p.job = afa::workload::FioJob::parse("rw=randread bs=4k iodepth=1");
    return p;
}

/** 600k ops/s open loop, 70% reads, zipf 0.9, 4 streams: past the
 *  knee, so the fabric and controller leave their fast paths. */
ExperimentParams
saturatedShape()
{
    ExperimentParams p = fig06Shape();
    afa::workload::OpenLoopParams ol;
    ol.arrival.ratePerSec = 600000.0;
    ol.streams = 4;
    ol.readFraction = 0.7;
    ol.zipfTheta = 0.9;
    p.openLoop = ol;
    return p;
}

TEST(AllocTest, Fig06ShapeAllocatesAtMostHalfAnAllocationPerIo)
{
    EXPECT_LE(allocationsPerIo("fig06 shape", fig06Shape(), msec(60),
                               msec(120)),
              0.5);
}

TEST(AllocTest, SaturatedOpenLoopAllocatesAtMostOnePerIo)
{
    // What remains here is model state: the backlog and the FTL map
    // leaves grow while the array is past its knee.
    EXPECT_LE(allocationsPerIo("saturated shape", saturatedShape(),
                               msec(100), msec(200)),
              1.0);
}

TEST(AllocTest, AgedNandOpenLoopIsReported)
{
    // Reported, not gated: GC relocation passes and write-buffer
    // backpressure allocate as the drives age.
    ExperimentParams p = fig06Shape();
    p.profile = afa::core::TuningProfile::ExpFirmware;
    p.ssds = 8;
    p.preconditionFraction = 1.0;
    afa::workload::OpenLoopParams ol;
    ol.arrival.ratePerSec = 200000.0;
    ol.readFraction = 0.7;
    p.openLoop = ol;
    allocationsPerIo("aged NAND shape", p, msec(100), msec(200));
}

} // namespace
