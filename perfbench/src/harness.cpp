#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

namespace zsb {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double nowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void sleepUntil(double deadline) {
  const double wait = deadline - nowSeconds();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void pinThread(int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) == 0) {
    return;
  }
  const int n = CPU_COUNT(&allowed);
  int want = ((k % n) + n) % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

Zipf::Zipf(std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t at = rank == 0 ? 0 : std::min(values.size(), rank) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(at),
                   values.end());
  return values[at];
}

std::vector<double> Latencies::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    out.push_back(s.value);
  }
  return out;
}

Latencies Latencies::slices(double start, bool traced) const {
  Latencies out;
  for (const Sample& s : samples_) {
    if (Tracer::tracedAt(start, s.at) == traced) {
      out.samples_.push_back(s);
    }
  }
  return out;
}

double Latencies::sliced(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  // Each slice must hold ten samples past the quantile, so slices widen
  // beyond one second when the sample rate is low.
  double first = samples_.front().at;
  double last = first;
  for (const Sample& s : samples_) {
    first = std::min(first, s.at);
    last = std::max(last, s.at);
  }
  const double span = std::max(last - first, 1e-9);
  const double rate = static_cast<double>(samples_.size()) / span;
  const double need = 10.0 / std::max(1.0 - q, 1e-6);
  const double slice = std::max(1.0, need / rate);
  std::map<long, std::vector<double>> slices;
  for (const Sample& s : samples_) {
    slices[static_cast<long>(std::floor((s.at - first) / slice))].push_back(
        s.value);
  }
  std::vector<double> perSlice;
  for (auto& [index, values] : slices) {
    // The ragged last slice of a phase is skipped when too thin.
    if (static_cast<double>(values.size()) >= need) {
      perSlice.push_back(quantile(std::move(values), q));
    }
  }
  if (perSlice.size() < 3) {
    return overall(q);
  }
  return quantile(perSlice, 0.5);
}

double Throughput::sliced(double start, double end) const {
  const auto slices = static_cast<std::size_t>((end - start) / kRateSlice);
  double total = 0.0;
  std::vector<double> perSlice(std::max<std::size_t>(slices, 1), 0.0);
  for (const Event& e : events_) {
    if (e.at < start || e.at >= end) {
      continue;
    }
    total += e.amount;
    const auto i = static_cast<std::size_t>((e.at - start) / kRateSlice);
    if (i < perSlice.size()) {
      perSlice[i] += e.amount;
    }
  }
  if (slices < 3) {
    return total / std::max(1e-9, end - start);
  }
  return quantile(perSlice, 0.5) / kRateSlice;
}

// --- tracing -------------------------------------------------------------

namespace {

struct ThreadLog {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gNextOp{1};
std::mutex gLogsMutex;
std::vector<std::unique_ptr<ThreadLog>> gLogs;  // guarded by gLogsMutex

ThreadLog& threadLog() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    owned->spans.reserve(1 << 16);
    ThreadLog* raw = owned.get();
    std::lock_guard<std::mutex> lock(gLogsMutex);
    gLogs.push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

std::string layerOf(const std::string& name) {
  const auto colon = name.find(':');
  return colon == std::string::npos ? name : name.substr(0, colon);
}

}  // namespace

void Tracer::setEnabled(bool on) { gTracing.store(on); }

bool Tracer::tracedAt(double start, double at) {
  return at >= start &&
         static_cast<long>(std::floor((at - start) / kTraceSlice)) % 2 == 1;
}

void Tracer::alternate(double start) {
  const bool on = tracedAt(start, nowSeconds());
  if (on != enabled()) {
    setEnabled(on);
  }
}
bool Tracer::enabled() { return gTracing.load(std::memory_order_relaxed); }

std::uint64_t Tracer::newOp() { return gNextOp.fetch_add(1); }

std::int32_t Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled()) {
    return -1;
  }
  ThreadLog& log = threadLog();
  Span span;
  span.name = name;
  span.parent = log.open.empty() ? -1 : log.open.back();
  if (op == 0) {
    op = span.parent >= 0
             ? log.spans[static_cast<std::size_t>(span.parent)].op
             : newOp();
  }
  span.op = op;
  span.start = nowSeconds();
  const auto index = static_cast<std::int32_t>(log.spans.size());
  log.spans.push_back(span);
  log.open.push_back(index);
  return index;
}

void Tracer::record(const char* name, std::uint64_t op, double start,
                    double end) {
  if (!enabled()) {
    return;
  }
  Span span;
  span.name = name;
  span.op = op == 0 ? newOp() : op;
  span.start = start;
  span.end = end;
  threadLog().spans.push_back(span);
}

void Tracer::end(std::int32_t handle) {
  if (handle < 0) {
    return;
  }
  ThreadLog& log = threadLog();
  log.spans[static_cast<std::size_t>(handle)].end = nowSeconds();
  if (!log.open.empty() && log.open.back() == handle) {
    log.open.pop_back();
  }
}

std::map<std::string, Tracer::LayerTime> Tracer::byName() {
  std::map<std::string, LayerTime> out;
  std::lock_guard<std::mutex> lock(gLogsMutex);
  for (const auto& log : gLogs) {
    const std::vector<Span>& spans = log->spans;
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end > 0.0) {
        childSeconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end <= 0.0) {
        continue;  // never closed
      }
      LayerTime& t = out[s.name];
      ++t.spans;
      t.totalSeconds += s.end - s.start;
      t.selfSeconds += std::max(0.0, s.end - s.start - childSeconds[i]);
    }
  }
  return out;
}

std::map<std::string, Tracer::LayerTime> Tracer::byLayer() {
  std::map<std::string, LayerTime> out;
  for (const auto& [name, t] : byName()) {
    LayerTime& l = out[layerOf(name)];
    l.spans += t.spans;
    l.totalSeconds += t.totalSeconds;
    l.selfSeconds += t.selfSeconds;
  }
  return out;
}

std::uint64_t Tracer::spanCount() {
  std::lock_guard<std::mutex> lock(gLogsMutex);
  std::uint64_t n = 0;
  for (const auto& log : gLogs) {
    n += log->spans.size();
  }
  return n;
}

void Tracer::dump(const std::string& path) {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(gLogsMutex);
  for (std::size_t t = 0; t < gLogs.size(); ++t) {
    for (const Span& s : gLogs[t]->spans) {
      out << "{\"thread\":" << t << ",\"name\":\"" << s.name
          << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
    }
  }
}

// --- results -------------------------------------------------------------

double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void resetPeakRss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  if (!refs) {
    throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
  }
}

void Sheet::e2e(const std::string& name, double value,
                const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Sheet::layer(const std::string& name, double value,
                  const std::string& unit) {
  layer_[name] = {value, unit};
}

void Sheet::note(const std::string& name, double value,
                 const std::string& unit) {
  notes_.push_back({name, {value, unit}});
}

void Sheet::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
}

}  // namespace zsb
