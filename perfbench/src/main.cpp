// zsbench: the repository benchmark's measuring binary.
//
//   zsbench --workload monitor|ingest|dashboard|fleet --seed N
//           --seconds S --trace 0|1 --workdir DIR [--spans FILE]
//
// Prints a human-readable sheet, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics the workload measured; --trace 1 its per-layer
// metrics (run.py fills in the declared ones it does not measure).
// Exits 1 when a correctness check fails.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>

#include <sched.h>

#include "harness.hpp"

namespace {

using zsb::Sheet;

std::string number(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

int usage() {
  std::cerr << "usage: zsbench --workload monitor|ingest|dashboard|fleet "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  zsb::Options options;
  std::string spansPath;  // traced runs write every span here (JSON lines)
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--spans") {
      spansPath = value;
    } else {
      return usage();
    }
  }
  if (options.workdir.empty() || options.seconds <= 0.0) {
    return usage();
  }
  options.nproc = usableCpus();
  std::filesystem::create_directories(options.workdir);

  Sheet sheet;
  try {
    if (options.workload == "monitor") {
      zsb::runMonitor(options, sheet);
    } else if (options.workload == "ingest") {
      zsb::runIngest(options, sheet);
    } else if (options.workload == "dashboard") {
      zsb::runDashboard(options, sheet);
    } else if (options.workload == "fleet") {
      zsb::runFleet(options, sheet);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "zsbench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }

  if (options.trace && !spansPath.empty()) {
    zsb::Tracer::dump(spansPath);
  }
  // Every metric the workload measured in this mode; run.py checks them
  // against BENCHMARK.json's list and fills in the ones not measured.
  const auto& values = options.trace ? sheet.layerMetrics() : sheet.e2eMetrics();
  std::cout << "workload " << options.workload << " (seed " << options.seed
            << ", " << options.seconds << " s, nproc " << options.nproc
            << (options.trace ? ", traced" : "") << ")\n";
  for (const auto& [name, e] : sheet.notes()) {
    std::cout << "  " << std::left << std::setw(44) << name << ' '
              << number(e.value) << ' ' << e.unit << '\n';
  }
  std::string metrics;
  for (const auto& [name, e] : values) {
    std::cout << "  " << std::left << std::setw(44) << name << ' '
              << number(e.value) << ' ' << e.unit << '\n';
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += "\"" + name + "\": {\"value\": " + number(e.value) +
               ", \"unit\": \"" + e.unit + "\"}";
  }
  std::cout << "  correct " << (sheet.correct() ? "yes" : "NO")
            << ", attempted " << sheet.attemptedCount() << ", failed "
            << sheet.failedCount() << '\n';
  std::cout << "{\"correct\": " << (sheet.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, sheet.attemptedCount())
            << ", \"failed\": " << sheet.failedCount() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return sheet.correct() ? 0 : 1;
}
