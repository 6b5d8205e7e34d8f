// Shared machinery of the zsbench binary: run options, seeded inputs,
// quantiles, the in-memory span recorder used by traced runs, and the
// result sheet that prints every metric with its unit and the final JSON
// line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zsb {

/// Seconds on the steady clock since the process started.
double nowSeconds();

/// Sleeps until `deadline` (nowSeconds() basis); returns at once when it
/// has passed.
void sleepUntil(double deadline);

/// Pins the calling thread to the k-th CPU the process may use (modulo
/// their count), so the workload's threads neither migrate nor share a
/// CPU with each other.
void pinThread(int k);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for data dirs (inside the checkout).
  std::string workdir;
  /// Usable CPUs; every workload stays within this many threads and OS
  /// connections.
  int nproc = 4;
};

/// splitmix64: the seeded source of every generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over [0, n): item k drawn with weight 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// q-quantile (0..1) by nearest rank; 0 for an empty set.
double quantile(std::vector<double> values, double q);

/// Latency samples of an open-loop phase, each stamped with the time it
/// completed, so percentiles can be taken per one-second slice.
class Latencies {
 public:
  void add(double atSeconds, double value) {
    samples_.push_back({atSeconds, value});
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::vector<double> values() const;
  /// Median over slices of each slice's q-quantile (a slice lasts at
  /// least one second and holds ten samples past the quantile): a value
  /// that one stalled second cannot swing on its own.
  [[nodiscard]] double sliced(double q) const;
  /// Plain quantile over every sample.
  [[nodiscard]] double overall(double q) const {
    return quantile(values(), q);
  }
  /// The samples taken while tracing was on (traced = true) or off,
  /// under Tracer::alternate's schedule from `start`.
  [[nodiscard]] Latencies slices(double start, bool traced) const;
  void append(const Latencies& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

 private:
  struct Sample {
    double at;
    double value;
  };
  std::vector<Sample> samples_;
};

/// Work completed during a closed-loop phase, stamped with when it
/// completed, so the rate can be taken per slice.
class Throughput {
 public:
  void add(double atSeconds, double amount) {
    events_.push_back({atSeconds, amount});
  }
  /// Median over kRateSlice-long slices of [start, end) of the work per
  /// second in each slice: a rate that a burst of host contention
  /// shorter than half the phase cannot swing.  The plain rate over the
  /// phase when it is shorter than three slices.
  [[nodiscard]] double sliced(double start, double end) const;
  void append(const Throughput& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }

 private:
  struct Event {
    double at;
    double amount;
  };
  std::vector<Event> events_;
};

/// Slice length of Throughput::sliced, seconds.
constexpr double kRateSlice = 0.25;

// --- tracing -------------------------------------------------------------

/// Length of one traced or untraced slice of a traced run, seconds.
constexpr double kTraceSlice = 0.5;

/// One recorded span.  `name` is "<layer>:<call>"; spans of one operation
/// share `op`; `parent` indexes the enclosing span on the same thread
/// (-1 for a root).
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Spans stay in per-thread memory while the benchmark runs and are
/// gathered at the end.  Disabled (the default), begin/end cost one
/// branch.
class Tracer {
 public:
  static void setEnabled(bool on);
  static bool enabled();
  /// Traced runs alternate: tracing is on in the odd kTraceSlice-long
  /// slices after `start` and off in the even ones, so the untraced
  /// slices measure the same run without spans and their difference is
  /// the tracing overhead.  Call from the workload's main loop.
  static void alternate(double start);
  static bool tracedAt(double start, double at);
  /// Opens a span; returns its handle (-1 when disabled).  op == 0
  /// inherits the enclosing span's operation id.
  static std::int32_t begin(const char* name, std::uint64_t op = 0);
  static void end(std::int32_t handle);
  /// A fresh operation id.
  static std::uint64_t newOp();
  /// Records an already finished root span (a query round trip that
  /// interleaves with other spans on its thread).
  static void record(const char* name, std::uint64_t op, double start,
                     double end);

  struct LayerTime {
    std::uint64_t spans = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
  };
  /// Self time (duration minus the part covered by direct children),
  /// summed per span name and per layer (the part before ':').
  static std::map<std::string, LayerTime> byName();
  static std::map<std::string, LayerTime> byLayer();
  static std::uint64_t spanCount();
  /// Writes every span as JSON lines (name, op, parent, start, end).
  static void dump(const std::string& path);
};

/// RAII span.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = 0)
      : handle_(Tracer::begin(name, op)) {}
  ~Scope() { Tracer::end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t handle_;
};

// --- results -------------------------------------------------------------

/// Peak resident set of this process, MiB (VmHWM).
double peakRssMiB();

/// Resets VmHWM to the current resident set (/proc/self/clear_refs), so
/// peakRssMiB() covers only what runs afterwards.  Workloads call it
/// once their inputs are generated, before the system under test is set
/// up.  Throws when the kernel refuses.
void resetPeakRss();

/// What one workload run produced.  Workloads fill end-to-end values
/// (measured untraced) and per-layer values (from the traced pass);
/// main() prints them.
class Sheet {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A human-readable line under the workload's own metric names (the
  /// aliases of the generic end-to-end metrics).
  void note(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attemptedCount() const { return attempted_; }
  [[nodiscard]] std::uint64_t failedCount() const { return failed_; }

  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::map<std::string, Entry>& e2eMetrics() const {
    return e2e_;
  }
  [[nodiscard]] const std::map<std::string, Entry>& layerMetrics() const {
    return layer_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, Entry>>& notes()
      const {
    return notes_;
  }

 private:
  std::map<std::string, Entry> e2e_;
  std::map<std::string, Entry> layer_;
  std::vector<std::pair<std::string, Entry>> notes_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 21;
/// Idle time between two set-ups, seconds: the host's speed drifts over
/// seconds, so set-ups spread over a few seconds sample more than one
/// state of it.
constexpr double kSetupSpacing = 0.2;

/// Runs `teardown` then `setup` kSetups times, kSetupSpacing apart, and
/// returns the median wall time of `setup` alone; the caller keeps the
/// last instance as the system under test.
template <typename Teardown, typename Setup>
double medianSetup(Teardown&& teardown, Setup&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < kSetups; ++i) {
    teardown();
    sleepUntil(nowSeconds() + kSetupSpacing);
    const double t0 = nowSeconds();
    setup();
    walls.push_back(nowSeconds() - t0);
  }
  return quantile(walls, 0.5);
}

// Workload entry points (one file each).
void runMonitor(const Options& options, Sheet& sheet);
void runIngest(const Options& options, Sheet& sheet);
void runDashboard(const Options& options, Sheet& sheet);
void runFleet(const Options& options, Sheet& sheet);

}  // namespace zsb
