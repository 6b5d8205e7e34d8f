// Micro-benchmarks (google-benchmark): the per-operation costs that bound
// ZeroSum's overhead budget — /proc text parsing, a full monitor sample as
// a function of thread count, the MPI interposition per message, CpuSet
// parsing, and the simulator's scheduler tick.
#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpuset.hpp"
#include "core/monitor.hpp"
#include "export/staging.hpp"
#include "mpisim/patterns.hpp"
#include "topology/presets.hpp"
#include "mpisim/recorder.hpp"
#include "procfs/parse.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"

namespace {

using namespace zerosum;

void BM_ParseTaskStat(benchmark::State& state) {
  const std::string line =
      "51334 (miniqmc) R 51300 51334 51300 34816 51334 4194304 "
      "881204 0 12 0 6394 1248 0 0 20 0 9 0 8941321 108000000 220301 "
      "18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseTaskStat(line));
  }
}
BENCHMARK(BM_ParseTaskStat);

void BM_ParseStatus(benchmark::State& state) {
  const std::string text =
      "Name:\tminiqmc\nState:\tR (running)\nTgid:\t51334\nPid:\t51334\n"
      "VmHWM:\t904532 kB\nVmRSS:\t881204 kB\nThreads:\t9\n"
      "Cpus_allowed_list:\t1-7\nvoluntary_ctxt_switches:\t365488\n"
      "nonvoluntary_ctxt_switches:\t4\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseStatus(text));
  }
}
BENCHMARK(BM_ParseStatus);

void BM_ParseMeminfo(benchmark::State& state) {
  const std::string text =
      "MemTotal:       527988388 kB\nMemFree:        483178044 kB\n"
      "MemAvailable:   508065400 kB\nBuffers:            4088 kB\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseMeminfo(text));
  }
}
BENCHMARK(BM_ParseMeminfo);

void BM_CpuSetParseFormat(benchmark::State& state) {
  const std::string list =
      "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,"
      "89-95,97-103,105-111,113-119,121-127";
  for (auto _ : state) {
    const CpuSet set = CpuSet::fromList(list);
    benchmark::DoNotOptimize(set.toList());
  }
}
BENCHMARK(BM_CpuSetParseFormat);

/// One full monitor sample against a simulated rank with N team threads:
/// this is the work the async thread does once per period.
void BM_MonitorSample(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  sim::SimNode node(CpuSet::fromList("0-63"), 64ULL << 30);
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = threads;
  qmc.steps = 1000000;  // effectively endless during the benchmark
  qmc.workPerStep = 50;
  const auto rank = sim::buildMiniQmcRank(
      node, CpuSet::range(0, static_cast<std::size_t>(threads)), qmc,
      node.hwts());
  core::Config cfg;
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid));
  double t = 0.0;
  for (auto _ : state) {
    node.advance(1);
    t += 1.0;
    session.sampleNow(t);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(threads));
}
BENCHMARK(BM_MonitorSample)->Arg(2)->Arg(8)->Arg(32);

void BM_CommRecorderPerMessage(benchmark::State& state) {
  mpisim::Recorder recorder(0);
  int peer = 0;
  for (auto _ : state) {
    recorder.recordSend(peer, 1 << 20);
    peer = (peer + 1) % 64;
  }
  benchmark::DoNotOptimize(recorder.totalBytesSent());
}
BENCHMARK(BM_CommRecorderPerMessage);

void BM_SchedulerTick(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  sim::SimNode node(CpuSet::fromList("0-127"), 512ULL << 30);
  const sim::Pid pid = node.spawnProcess("bench", CpuSet{});
  sim::Behavior busy;
  busy.iterations = 1;
  busy.iterWorkJiffies = 1ULL << 40;  // effectively endless
  for (int t = 0; t < tasks; ++t) {
    node.spawnTask(pid, "worker", LwpType::kOther, busy);
  }
  for (auto _ : state) {
    node.advance(1);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SchedulerTick)->Arg(8)->Arg(72);

void BM_ReportRender(benchmark::State& state) {
  // Rendering the Listing-2 report for a 9-LWP rank (the end-of-run cost).
  std::map<int, core::LwpRecord> lwps;
  for (int tid = 100; tid < 109; ++tid) {
    core::LwpRecord r;
    r.tid = tid;
    r.type = LwpType::kOpenMp;
    for (int i = 0; i < 60; ++i) {
      core::LwpSample sample;
      sample.timeSeconds = i;
      sample.utimeDelta = 90;
      sample.stimeDelta = 2;
      r.addSample(sample, CpuSet::fromList("1-7"));
    }
    lwps[tid] = r;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Reporter::renderLwpTable(lwps));
  }
}
BENCHMARK(BM_ReportRender);

void BM_CsvExportPerPeriod(benchmark::State& state) {
  std::map<int, core::LwpRecord> lwps;
  core::LwpRecord r;
  r.tid = 1;
  for (int i = 0; i < 100; ++i) {
    core::LwpSample sample;
    r.addSample(sample, CpuSet::fromList("1-7"));
  }
  lwps[1] = r;
  for (auto _ : state) {
    std::ostringstream out;
    core::CsvExporter::writeLwpSeries(out, lwps);
    benchmark::DoNotOptimize(out.str());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CsvExportPerPeriod);

void BM_StagingWriteStep(benchmark::State& state) {
  exporter::StagingWriter writer("/tmp/zs_bench_staging.bin");
  const std::vector<double> row{1.0, 2.0};
  for (auto _ : state) {
    writer.beginStep();
    for (int v = 0; v < 20; ++v) {
      writer.put("metric." + std::to_string(v), row);
    }
    writer.endStep();
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_StagingWriteStep);

void BM_GyrokineticPatternGen(benchmark::State& state) {
  mpisim::patterns::GyrokineticParams params;
  params.steps = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpisim::patterns::toMatrix(
        512, [&](const mpisim::patterns::SendFn& send) {
          mpisim::patterns::gyrokineticPic(512, params, send);
        }));
  }
}
BENCHMARK(BM_GyrokineticPatternGen);

void BM_TopologyBuildFrontier(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::presets::frontier());
  }
}
BENCHMARK(BM_TopologyBuildFrontier);

}  // namespace

// BENCHMARK_MAIN() expanded by hand so the run also leaves a
// machine-readable result file behind by default: unless the caller
// already chose an output, inject --benchmark_out=BENCH_micro.json.
// Explicit --benchmark_out/--benchmark_format flags win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool hasOut = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      hasOut = true;
    }
  }
  std::string outFlag = "--benchmark_out=BENCH_micro.json";
  std::string formatFlag = "--benchmark_out_format=json";
  if (!hasOut) {
    args.push_back(outFlag.data());
    args.push_back(formatFlag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!hasOut) {
    std::cout << "wrote BENCH_micro.json\n";
  }
  return 0;
}
