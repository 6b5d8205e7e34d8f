// Hot-path cost of one sampling period, stage by stage: ns/op and
// allocs/op for the /proc readers+parsers, the publish fan-out, the GPU
// query + accumulate, the aggregation-client enqueue, and the tsdb
// append.  The zero-allocation contract ("do no harm", paper §3.1/§4.1)
// is enforced here, not just reported: the procfs, publish, gpu and
// client-enqueue stages must measure ZERO allocations per op in the
// steady state or the bench exits nonzero.  (tsdb.append is reported but not zero-asserted: rollup
// windows and WAL growth allocate amortized as time advances.)
//
// Emits BENCH_sampling.json (json::Writer); --out <path> overrides the
// output location so CI can collect it from any working directory.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/alloc_hook.hpp"
#include "common/cpuset.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "gpu/simulated.hpp"
#include "procfs/parse.hpp"
#include "procfs/procfs.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;

namespace {

struct StageResult {
  std::string name;
  std::uint64_t iterations = 0;
  double nsPerOp = 0.0;
  double allocsPerOp = 0.0;
  bool mustBeZeroAlloc = false;
};

template <typename Fn>
StageResult measure(const std::string& name, bool mustBeZeroAlloc,
                    std::uint64_t warmup, std::uint64_t iterations, Fn&& fn) {
  for (std::uint64_t i = 0; i < warmup; ++i) {
    fn();
  }
  const std::uint64_t allocsBefore = allochook::allocations();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    fn();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t allocs = allochook::allocations() - allocsBefore;

  StageResult r;
  r.name = name;
  r.iterations = iterations;
  r.nsPerOp = static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      elapsed)
                      .count()) /
              static_cast<double>(iterations);
  r.allocsPerOp =
      static_cast<double>(allocs) / static_cast<double>(iterations);
  r.mustBeZeroAlloc = mustBeZeroAlloc;
  std::cout << "  " << r.name << ": " << static_cast<std::uint64_t>(r.nsPerOp)
            << " ns/op, " << r.allocsPerOp << " allocs/op over "
            << r.iterations << " iterations\n";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_sampling.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--out") {
      jsonPath = argv[i + 1];
    }
  }

  std::cout << "=== sampling hot path: ns/op and allocs/op ===\n\n";
  std::vector<StageResult> stages;
  constexpr std::uint64_t kWarmup = 200;
  constexpr std::uint64_t kIters = 2000;

  // --- procfs read + parse, against the live /proc -----------------------
  {
    auto fs = procfs::makeRealProcFs();
    const int pid = fs->selfPid();
    std::string buf;
    procfs::ProcStatus status;
    stages.push_back(measure("procfs.status", true, kWarmup, kIters, [&] {
      fs->readProcessStatusInto(pid, buf);
      procfs::parseStatusInto(buf, status);
    }));
    procfs::TaskStat stat;
    stages.push_back(measure("procfs.task_stat", true, kWarmup, kIters, [&] {
      fs->readTaskStatInto(pid, pid, buf);
      procfs::parseTaskStatInto(buf, stat);
    }));
    procfs::MemInfo mem;
    stages.push_back(measure("procfs.meminfo", true, kWarmup, kIters, [&] {
      fs->readMeminfoInto(buf);
      procfs::parseMeminfoInto(buf, mem);
    }));
    procfs::StatSnapshot snap;
    stages.push_back(measure("procfs.stat", true, kWarmup, kIters, [&] {
      fs->readStatInto(buf);
      procfs::parseStatInto(buf, snap);
    }));
    std::vector<int> tids;
    stages.push_back(measure("procfs.list_tasks", true, kWarmup, kIters, [&] {
      fs->listTasksInto(pid, tids);
    }));
  }

  // --- publish: tracker state -> Record batch -> stream fan-out ----------
  {
    sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
    sim::MiniQmcConfig qmc;
    qmc.ompThreads = 2;
    qmc.steps = 1000;
    qmc.workPerStep = 20;
    const auto rank =
        sim::buildMiniQmcRank(node, CpuSet::fromList("0-1"), qmc, node.hwts());
    core::Config cfg;
    cfg.jiffyHz = sim::kHz;
    cfg.signalHandler = false;
    core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid));
    node.advance(sim::kHz);
    const double t = node.nowSeconds();
    session.sampleNow(t);

    exporter::MetricStream stream;
    std::uint64_t delivered = 0;
    stream.subscribe([&delivered](const exporter::Batch& batch) {
      delivered += batch.size();
    });
    exporter::SessionPublisher publisher(&stream);
    stages.push_back(measure("publish", true, kWarmup, kIters, [&] {
      publisher.publish(session, t);
    }));
    if (delivered == 0) {
      std::cerr << "ERROR: publish stage delivered no records\n";
      return 1;
    }
  }

  // --- gpu: one device query folded into its record (GpuTracker's
  // per-device step); the history vector is reserved, so this times the
  // query and the accumulator update ------------------------------------
  {
    gpu::SimulatedGpu device(0, 0, "bench-gcd");
    device.setActivity(0.5);
    core::GpuRecord record;
    record.samples.reserve(kWarmup + kIters);
    double t = 0.0;
    stages.push_back(measure("gpu.sample", true, kWarmup, kIters, [&] {
      t += 0.01;
      device.advance(0.01);
      record.addSample(t, device.query());
    }));
  }

  // --- aggregation client: id-record enqueue into the bounded queue ------
  {
    auto hub = std::make_shared<aggregator::PipeHub>();
    aggregator::Hello hello;
    hello.job = "bench";
    hello.rank = 0;
    hello.worldSize = 1;
    hello.hostname = "node0000";
    hello.pid = ::getpid();
    aggregator::ClientOptions options;
    // Keep the flush edge (frame encode, a string build) out of the
    // measured loop: this stage times the queue path the publish
    // callback pays every period.  The queue bound is shrunk so the
    // vector FIFO completes its first full overflow/compaction cycle —
    // and thus reaches its fixed steady-state capacity — inside the
    // warmup iterations.
    options.batchRecords = 1U << 20;
    options.maxQueueRecords = 1000;
    // Measure the plain bounded-queue path; a pinned-full queue would
    // otherwise escalate the degradation ladder mid-measure.
    options.adaptive = false;
    aggregator::Client client(hub->makeClientTransport(), hello, options);
    std::vector<aggregator::IdRecord> batch;
    for (int i = 0; i < 50; ++i) {
      batch.push_back(
          {1.0, names::intern("bench.metric." + std::to_string(i)),
           static_cast<double>(i)});
    }
    stages.push_back(
        measure("aggregate_client.enqueue", true, kWarmup, kIters, [&] {
          client.enqueueIds(batch, 1.0);
        }));
  }

  // --- tsdb append: WAL frame + hot-window merge --------------------------
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("zs_bench_sampling." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    tsdb::EngineOptions options;
    options.fsync = tsdb::FsyncPolicy::kOff;
    options.walRotateBytes = 1ULL << 40;  // never rotate mid-measure
    tsdb::Engine engine(dir.string(), options);
    std::vector<tsdb::Sample> samples;
    for (int i = 0; i < 50; ++i) {
      samples.push_back(
          {1.0, "bench.metric." + std::to_string(i), static_cast<double>(i)});
    }
    stages.push_back(measure("tsdb.append", false, kWarmup, kIters, [&] {
      engine.append("bench", 0, samples);
    }));
    std::filesystem::remove_all(dir);
  }

  // --- the contract -------------------------------------------------------
  bool ok = true;
  for (const StageResult& r : stages) {
    if (r.mustBeZeroAlloc && r.allocsPerOp != 0.0) {
      std::cerr << "ERROR: stage " << r.name << " allocated ("
                << r.allocsPerOp << " allocs/op); the steady-state "
                << "sampling path must not touch the heap\n";
      ok = false;
    }
  }

  std::ofstream jsonOut(jsonPath);
  if (jsonOut) {
    json::Writer w(jsonOut);
    w.beginObject();
    w.field("benchmark", "sampling_loop");
    w.key("stages").beginArray();
    for (const StageResult& r : stages) {
      w.beginObject();
      w.field("name", r.name);
      w.field("iterations", r.iterations);
      w.field("ns_per_op", r.nsPerOp);
      w.field("allocs_per_op", r.allocsPerOp);
      w.field("must_be_zero_alloc", r.mustBeZeroAlloc);
      w.endObject();
    }
    w.endArray();
    w.endObject();
    jsonOut << '\n';
    std::cout << "\nwrote " << jsonPath << '\n';
  } else {
    std::cerr << "could not write " << jsonPath << '\n';
    return 1;
  }
  return ok ? 0 : 1;
}
