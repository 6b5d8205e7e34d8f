// MonitorSession: the asynchronous monitor at the heart of ZeroSum
// (paper §3.1).
//
// One session monitors one process.  In *async* mode it spawns the
// background sampling thread (pinned, by default, to the last HWT of the
// process affinity) and samples every Config::period of wall time.  In
// *manual* mode the embedding harness calls sampleNow() between simulator
// advances, so the Tables 1-3 and Figures 6-7 experiments run in virtual
// time.  All observation flows through the ProcFs provider; the session
// never touches the OS directly.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>

#include "common/clock.hpp"
#include "core/config.hpp"
#include "core/contention.hpp"
#include "core/csv_export.hpp"
#include "core/gpu_tracker.hpp"
#include "core/health.hpp"
#include "core/hwt_tracker.hpp"
#include "core/lwp_tracker.hpp"
#include "core/memory_tracker.hpp"
#include "core/progress.hpp"
#include "core/reporter.hpp"
#include "mpisim/recorder.hpp"

namespace zerosum::core {

class MonitorSession {
 public:
  /// `identity.pid == 0` autodetects from the provider's selfPid().
  MonitorSession(Config config, std::unique_ptr<procfs::ProcFs> fs,
                 ProcessIdentity identity = {},
                 gpu::DeviceList gpuDevices = {});
  ~MonitorSession();

  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;

  // --- Wiring (before start / between samples) ---------------------------
  /// Classifies these tids as OpenMP threads (OMPT callback or probe).
  void addOmpTids(const std::set<int>& tids);
  /// Attaches this rank's MPI point-to-point recorder for log export.
  void attachCommRecorder(const mpisim::Recorder* recorder);
  /// Receives heartbeat and warning lines (default: stdout when
  /// Config::heartbeat is set).
  void setProgressSink(std::function<void(const std::string&)> sink);
  /// Invoked after every sample with this session and the sample time —
  /// the hook the export publishers attach to (paper §3.3/§6).  In async
  /// mode it runs on the monitor thread.
  void setSampleCallback(
      std::function<void(const MonitorSession&, double)> callback);
  /// Supplies the aggregation client's degradation counters for the
  /// health time series (core cannot depend on the aggregator, so the
  /// export wiring injects a getter).  Called once per sample; must not
  /// throw.
  void setAggHealthProvider(std::function<AggHealth()> provider);

  // --- Async operation ----------------------------------------------------
  /// Spawns the monitor thread.  A custom pacer substitutes virtual time
  /// (used by tests); default is wall-clock.
  void start(std::unique_ptr<Pacer> pacer = nullptr);
  /// Stops the monitor thread, takes a final sample, freezes duration.
  void stop();
  [[nodiscard]] bool running() const { return thread_.joinable(); }
  /// Kernel tid of the monitor thread (0 until started).
  [[nodiscard]] int monitorTid() const { return monitorTid_; }

  // --- Manual operation ---------------------------------------------------
  /// Takes one sample at the given virtual time.  Must not be mixed with
  /// start()/stop().
  void sampleNow(double timeSeconds);

  // --- Results -------------------------------------------------------------
  [[nodiscard]] double durationSeconds() const { return duration_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const ProcessIdentity& identity() const { return identity_; }
  [[nodiscard]] const CpuSet& processAffinity() const { return affinity_; }
  [[nodiscard]] const LwpTracker& lwps() const { return *lwpTracker_; }
  [[nodiscard]] const HwtTracker& hwts() const { return *hwtTracker_; }
  [[nodiscard]] const MemoryTracker& memory() const { return *memTracker_; }
  [[nodiscard]] const GpuTracker& gpus() const { return *gpuTracker_; }
  [[nodiscard]] const ProgressDetector& progress() const { return *progress_; }

  /// Self-health snapshot: samples taken/degraded/dropped, loop overruns,
  /// and per-subsystem error/quarantine/recovery counters.  Call after
  /// stop() (or between manual samples); the monitor thread mutates the
  /// underlying counters while running.
  [[nodiscard]] MonitorHealth health() const;
  /// Per-sample health time series (one row per completed sampleOnce).
  [[nodiscard]] const std::vector<HealthSample>& healthSeries() const {
    return healthSeries_;
  }
  /// Bytes the per-period history holds (the capacities of every
  /// tracker's sample vectors and the health series): the monitor's own
  /// footprint in the application, which grows with the run.
  [[nodiscard]] std::size_t historyBytes() const;

  /// Runs the contention analyzer over everything sampled so far.
  [[nodiscard]] std::vector<Finding> analyze() const;

  /// The Listing-2-style report (includes findings).
  [[nodiscard]] std::string report() const;

  /// Report plus all CSV sections — the per-process log of §3.6.
  void writeLog(std::ostream& out) const;
  /// Writes the log to "<logPrefix>.<rank>.<pid>.log"; returns the path.
  std::string writeLogFile() const;

 private:
  void sampleOnce(double timeSeconds);
  void monitorLoop();
  void pinMonitorThread();

  Config config_;
  std::unique_ptr<procfs::ProcFs> fs_;
  ProcessIdentity identity_;
  CpuSet affinity_;

  std::unique_ptr<LwpTracker> lwpTracker_;
  std::unique_ptr<HwtTracker> hwtTracker_;
  std::unique_ptr<MemoryTracker> memTracker_;
  std::unique_ptr<GpuTracker> gpuTracker_;
  std::unique_ptr<ProgressDetector> progress_;

  // Error boundaries around each sampling subsystem ("do no harm").
  SubsystemGuard lwpGuard_;
  SubsystemGuard hwtGuard_;
  SubsystemGuard memGuard_;
  SubsystemGuard gpuGuard_;
  SubsystemGuard progressGuard_;
  std::uint64_t samplesTaken_ = 0;
  std::uint64_t samplesDegraded_ = 0;
  std::uint64_t samplesDropped_ = 0;
  std::uint64_t loopOverruns_ = 0;
  std::vector<HealthSample> healthSeries_;
  std::function<void(const MonitorSession&, double)> sampleCallback_;
  std::function<AggHealth()> aggHealthProvider_;
  const mpisim::Recorder* commRecorder_ = nullptr;

  std::unique_ptr<Pacer> pacer_;
  std::thread thread_;
  int monitorTid_ = 0;
  double duration_ = 0.0;
  bool manualMode_ = false;
  bool stopped_ = false;
};

}  // namespace zerosum::core
