#include "core/report.hh"

#include <sstream>

#include "nvme/command.hh"
#include "sim/logging.hh"
#include "stats/summary.hh"

namespace afa::core {

using afa::stats::LadderAggregate;
using afa::stats::NinesLadder;
using afa::stats::Table;

Table
perDeviceTable(const ExperimentResult &result)
{
    std::vector<std::string> headers{"device", "ios"};
    for (auto *label : NinesLadder::labels())
        headers.push_back(label);
    Table table(std::move(headers));
    for (const auto &dev : result.perDevice) {
        std::vector<std::string> row{dev.device,
                                     Table::num(dev.samples)};
        for (double v : dev.ladderUs)
            row.push_back(Table::num(v, 1));
        table.addRow(std::move(row));
    }
    return table;
}

Table
envelopeTable(const ExperimentResult &result)
{
    Table table({"percentile", "min_us", "mean_us", "max_us",
                 "stddev_us"});
    const auto &agg = result.aggregate;
    for (std::size_t p = 0; p < NinesLadder::kPoints; ++p) {
        table.addRow({NinesLadder::labels()[p],
                      Table::num(agg.minUs[p], 1),
                      Table::num(agg.meanUs[p], 1),
                      Table::num(agg.maxUs[p], 1),
                      Table::num(agg.stddevUs[p], 1)});
    }
    return table;
}

Table
comparisonTable(
    const std::vector<std::pair<std::string, LadderAggregate>> &rows)
{
    std::vector<std::string> headers{"metric", "config"};
    for (auto *label : NinesLadder::labels())
        headers.push_back(label);
    Table table(std::move(headers));
    for (const char *metric : {"mean", "stddev"}) {
        for (const auto &[name, agg] : rows) {
            std::vector<std::string> row{metric, name};
            bool mean = std::string(metric) == "mean";
            for (std::size_t p = 0; p < NinesLadder::kPoints; ++p)
                row.push_back(Table::num(
                    mean ? agg.meanUs[p] : agg.stddevUs[p], 1));
            table.addRow(std::move(row));
        }
    }
    return table;
}

Table
geometryTable(const Geometry &geometry,
              const std::vector<GeometryVariant> &variants)
{
    Table table({"config", "ssds/phys-core", "fio-threads/run",
                 "runs"});
    for (GeometryVariant v : variants) {
        unsigned per_run = geometry.threadsPerRun(v);
        unsigned runs = (geometry.ssds() + per_run - 1) / per_run;
        double per_core = 0.0;
        switch (v) {
          case GeometryVariant::FourPerCore:
            per_core = 4;
            break;
          case GeometryVariant::TwoPerCore:
            per_core = 2;
            break;
          case GeometryVariant::OnePerCore:
            per_core = 1;
            break;
          case GeometryVariant::SingleThread:
            per_core = 1;
            break;
        }
        table.addRow({geometryVariantName(v), Table::num(per_core, 0),
                      Table::num(std::uint64_t(per_run)),
                      Table::num(std::uint64_t(runs))});
    }
    return table;
}

std::string
describeExperiment(const ExperimentResult &result)
{
    std::ostringstream os;
    os << "profile=" << tuningProfileName(result.params.profile)
       << " geometry="
       << geometryVariantName(result.params.variant)
       << " ssds=" << result.params.ssds
       << " runs=" << result.runs
       << " runtime=" << afa::sim::toSec(result.params.runtime) << "s"
       << " seed=" << result.params.seed << "\n";
    if (const auto &ol = result.params.openLoop) {
        // The open-loop engine runs instead of the FIO job.
        const bool bursty = ol->arrival.burstFactor > 1.0;
        os << afa::sim::strfmt(
            "workload: open-loop rate=%.10g/s read=%.10g%% zipf=%g "
            "burst=%g streams=%u bs=%u",
            ol->arrival.ratePerSec, ol->readFraction * 100.0,
            ol->zipfTheta, bursty ? ol->arrival.burstFactor : 1.0,
            ol->streams, afa::nvme::kLogicalBlockBytes);
    } else {
        os << "workload: rw=" << rwModeName(result.params.job.rw)
           << " bs=" << result.params.job.blockSize
           << " iodepth=" << result.params.job.ioDepth;
    }
    os << (result.tuning.fioRtPriority > 0
               ? afa::sim::strfmt(" chrt -f %d",
                                  result.tuning.fioRtPriority)
               : std::string())
       << "\n";
    os << "boot cmdline: "
       << (result.bootCmdline.empty() ? "(default)"
                                      : result.bootCmdline)
       << "\n";
    if (result.tuning.pinIrqAffinity)
        os << "irq: all vectors pinned to queue CPUs; irqbalance off\n";
    if (!result.tuning.firmware.smart.enabled)
        os << "firmware: experimental (SMART update/save disabled)\n";
    os << "ios=" << result.totalIos << " throughput="
       << afa::sim::strfmt("%.2f GB/s", result.aggregateGBps)
       << " events=" << result.simulatedEvents << "\n";
    return os.str();
}

} // namespace afa::core
