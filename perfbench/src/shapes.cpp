#include "shapes.hpp"

#include <memory>

#include "common/interning.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "gpu/simulated.hpp"
#include "harness.hpp"
#include "procfs/simfs.hpp"
#include "sim/slurm.hpp"
#include "sim/workload.hpp"
#include "topology/presets.hpp"

namespace zsb {

using namespace zerosum;

const std::vector<std::string>& frontierRankMetrics() {
  static const std::vector<std::string> metrics = [] {
    const auto topo = topology::presets::frontier();
    sim::slurm::SrunArgs args;
    args.ntasks = 8;
    args.cpusPerTask = 7;
    const auto plan = sim::slurm::planSrun(topo, args);
    sim::SimNode node(topo.allPus(), 512ULL << 30);
    sim::MiniQmcConfig qmc;
    qmc.ompThreads = 7;
    qmc.steps = 1000;
    qmc.workPerStep = 12;
    qmc.gpuOffload = true;
    const auto rank =
        sim::buildMiniQmcRank(node, plan.at(0).cpus, qmc, node.hwts());

    core::Config cfg;
    cfg.jiffyHz = sim::kHz;
    cfg.signalHandler = false;
    core::ProcessIdentity identity;
    identity.rank = 0;
    identity.worldSize = static_cast<int>(plan.size());
    identity.pid = rank.pid;
    identity.hostname = "frontier-sim";
    gpu::DeviceList gpus{std::make_shared<gpu::SimulatedGpu>(
        0, 4, "AMD Instinct MI250X")};
    core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid),
                                 identity, gpus);

    exporter::MetricStream stream;
    std::vector<std::string> names;
    stream.subscribe([&names](const exporter::Batch& batch) {
      names.clear();
      for (const exporter::Record& r : batch) {
        names.emplace_back(r.nameView());
      }
    });
    exporter::SessionPublisher publisher(&stream);
    // A few periods so every tracker has a previous sample to diff
    // against: the last batch is the steady-state shape.
    for (int period = 0; period < 4; ++period) {
      node.advance(sim::kHz);
      session.sampleNow(node.nowSeconds());
      publisher.publish(session, node.nowSeconds());
    }
    return names;
  }();
  return metrics;
}

double sampleValue(std::uint64_t seed, int rank, std::size_t metric,
                   std::uint64_t period) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^
          (static_cast<std::uint64_t>(rank) << 40) ^
          (static_cast<std::uint64_t>(metric) << 20) ^ (period % kPool));
  return static_cast<double>(rng.below(1000));
}

std::vector<std::vector<aggregator::IdRecord>> buildPeriods(
    std::uint64_t seed, int rank, const std::vector<std::string>& metrics) {
  std::vector<names::Id> ids;
  ids.reserve(metrics.size());
  for (const std::string& m : metrics) {
    ids.push_back(names::intern(m));
  }
  std::vector<std::vector<aggregator::IdRecord>> periods(kPool);
  for (std::size_t k = 0; k < kPool; ++k) {
    periods[k].reserve(ids.size());
    for (std::size_t m = 0; m < ids.size(); ++m) {
      periods[k].push_back({0.0, ids[m], sampleValue(seed, rank, m, k)});
    }
  }
  return periods;
}

}  // namespace zsb
