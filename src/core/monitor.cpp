#include "core/monitor.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "openmp/ompt.hpp"
#include "trace/trace.hpp"

namespace zerosum::core {

MonitorSession::MonitorSession(Config config,
                               std::unique_ptr<procfs::ProcFs> fs,
                               ProcessIdentity identity,
                               gpu::DeviceList gpuDevices)
    : config_(config),
      fs_(std::move(fs)),
      identity_(identity),
      lwpGuard_("lwp", config.maxConsecutiveErrors, config.retryBackoffPeriods),
      hwtGuard_("hwt", config.maxConsecutiveErrors, config.retryBackoffPeriods),
      memGuard_("memory", config.maxConsecutiveErrors,
                config.retryBackoffPeriods),
      gpuGuard_("gpu", config.maxConsecutiveErrors, config.retryBackoffPeriods),
      progressGuard_("progress", config.maxConsecutiveErrors,
                     config.retryBackoffPeriods) {
  if (!fs_) {
    throw ConfigError("MonitorSession requires a ProcFs provider");
  }
  if (config_.trace || !config_.traceFile.empty()) {
    trace::TraceRecorder::instance().enable();
  }
  if (identity_.pid == 0) {
    identity_.pid = fs_->selfPid();
  }
  if (identity_.hostname.empty() || identity_.hostname == "localhost") {
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
      identity_.hostname = host;
    }
  }
  affinity_ = fs_->processStatus(identity_.pid).cpusAllowed;

  lwpTracker_ = std::make_unique<LwpTracker>(*fs_, identity_.pid);
  hwtTracker_ = std::make_unique<HwtTracker>(*fs_, affinity_);
  memTracker_ = std::make_unique<MemoryTracker>(*fs_, identity_.pid,
                                                config_.memWarnFraction);
  gpuTracker_ = std::make_unique<GpuTracker>(std::move(gpuDevices));
  progress_ = std::make_unique<ProgressDetector>(config_.deadlockPeriods);
  if (config_.heartbeat) {
    progress_->setHeartbeatSink(
        [](const std::string& line) { std::cout << line << '\n'; });
  }
  // Pick up OpenMP threads announced before the session existed.
  lwpTracker_->addOmpTids(openmp::ToolRegistry::instance().knownOmpTids());
}

MonitorSession::~MonitorSession() {
  if (running()) {
    try {
      stop();
    } catch (...) {  // NOLINT(bugprone-empty-catch) — destructor must not throw
    }
  }
}

void MonitorSession::addOmpTids(const std::set<int>& tids) {
  lwpTracker_->addOmpTids(tids);
}

void MonitorSession::attachCommRecorder(const mpisim::Recorder* recorder) {
  commRecorder_ = recorder;
}

void MonitorSession::setProgressSink(
    std::function<void(const std::string&)> sink) {
  progress_->setHeartbeatSink(std::move(sink));
}

void MonitorSession::setSampleCallback(
    std::function<void(const MonitorSession&, double)> callback) {
  sampleCallback_ = std::move(callback);
}

void MonitorSession::setAggHealthProvider(
    std::function<AggHealth()> provider) {
  aggHealthProvider_ = std::move(provider);
}

void MonitorSession::sampleOnce(double timeSeconds) {
  ZS_TRACE_SCOPE("zs.sample");
  // Each subsystem samples inside its own error boundary: a bad /proc
  // read degrades that subsystem for this period (and may quarantine it),
  // but the sample as a whole — and the application — carries on.  The
  // spans sit inside the guard lambdas, so a quarantined (skipped)
  // subsystem contributes no trace time — exactly what the overhead
  // attribution should see.
  bool degraded = false;
  degraded |= !lwpGuard_.runOnce([&] {
    ZS_TRACE_SCOPE("zs.sample.lwp");
    lwpTracker_->sample(timeSeconds);
  });
  degraded |= !hwtGuard_.runOnce([&] {
    ZS_TRACE_SCOPE("zs.sample.hwt");
    hwtTracker_->sample(timeSeconds);
  });
  if (config_.monitorMemory) {
    degraded |= !memGuard_.runOnce([&] {
      ZS_TRACE_SCOPE("zs.sample.memory");
      memTracker_->sample(timeSeconds);
    });
  }
  if (config_.monitorGpu) {
    degraded |= !gpuGuard_.runOnce([&] {
      ZS_TRACE_SCOPE("zs.sample.gpu");
      gpuTracker_->sample(timeSeconds);
    });
  }
  degraded |= !progressGuard_.runOnce([&] {
    ZS_TRACE_SCOPE("zs.sample.progress");
    progress_->observe(timeSeconds, lwpTracker_->records(),
                       config_.heartbeatPeriods);
  });
  duration_ = timeSeconds;
  ++samplesTaken_;
  if (degraded) {
    ++samplesDegraded_;
  }
  // Summed straight off the guards: building a full MonitorHealth here
  // would copy per-subsystem name/error strings every period.
  HealthSample hs;
  hs.timeSeconds = timeSeconds;
  hs.samplesTaken = samplesTaken_;
  hs.samplesDegraded = samplesDegraded_;
  hs.samplesDropped = samplesDropped_;
  hs.loopOverruns = loopOverruns_;
  const SubsystemGuard* guards[] = {&lwpGuard_, &hwtGuard_, &memGuard_,
                                    &gpuGuard_, &progressGuard_};
  for (const SubsystemGuard* guard : guards) {
    const SubsystemHealth& sh = guard->health();
    hs.subsystemsQuarantined += sh.quarantined ? 1 : 0;
    hs.quarantines += sh.quarantines;
    hs.recoveries += sh.recoveries;
  }
  if (aggHealthProvider_) {
    const AggHealth agg = aggHealthProvider_();
    hs.aggRecordsCoarsened = agg.recordsCoarsened;
    hs.aggDegradeTransitions = agg.degradeTransitions;
    hs.aggRecordsDropped = agg.recordsDropped;
    hs.aggDegradeStage = agg.degradeStage;
    hs.aggAckedPressure = agg.ackedPressure;
    hs.aggFaninDirect = agg.faninDirectSources;
    hs.aggFaninForwarded = agg.faninForwardedSources;
    hs.aggFaninMaxHops = agg.faninMaxHops;
  }
  healthSeries_.push_back(hs);
  ZS_TRACE_COUNTER("zs.samples_degraded",
                   static_cast<double>(samplesDegraded_));
  ZS_TRACE_COUNTER("zs.subsystems_quarantined",
                   static_cast<double>(hs.subsystemsQuarantined));
  ZS_TRACE_COUNTER("zs.monitor.history_bytes",
                   static_cast<double>(historyBytes()));
  if (sampleCallback_) {
    ZS_TRACE_SCOPE("zs.export.callback");
    try {
      sampleCallback_(*this, timeSeconds);
    } catch (const std::exception& e) {
      log::debug() << "sample callback threw: " << e.what();
    } catch (...) {
      log::debug() << "sample callback threw an unknown exception";
    }
  }
}

void MonitorSession::pinMonitorThread() {
  std::size_t target;
  if (config_.asyncCore >= 0) {
    target = static_cast<std::size_t>(config_.asyncCore);
  } else if (!affinity_.empty()) {
    // Paper default: the last hardware thread assigned to the process.
    target = affinity_.last();
  } else {
    return;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (target < CPU_SETSIZE) {
    CPU_SET(target, &mask);
    if (::pthread_setaffinity_np(::pthread_self(), sizeof(mask), &mask) != 0) {
      log::info() << "could not pin monitor thread to HWT " << target;
    }
  }
}

void MonitorSession::monitorLoop() {
  monitorTid_ = openmp::currentTid();
  lwpTracker_->hintType(monitorTid_, LwpType::kZeroSum);
  // Visible as the comm field in /proc — other tools (and our own
  // name-based classifier) can identify the monitor without hints.
  ::pthread_setname_np(::pthread_self(), "zerosum");
  pinMonitorThread();
  // Nothing may cross the thread boundary: std::terminate here would take
  // the monitored application down with the monitor.
  try {
    while (pacer_->waitPeriod(config_.period)) {
      const auto begin = std::chrono::steady_clock::now();
      try {
        sampleOnce(pacer_->elapsedSeconds());
      } catch (const std::exception& e) {
        ++samplesDropped_;
        log::warn() << "sample dropped: " << e.what();
      } catch (...) {
        ++samplesDropped_;
        log::warn() << "sample dropped: unknown exception";
      }
      if (std::chrono::steady_clock::now() - begin > config_.period) {
        ++loopOverruns_;
      }
    }
  } catch (const std::exception& e) {
    log::error() << "monitor loop aborted: " << e.what();
  } catch (...) {
    log::error() << "monitor loop aborted: unknown exception";
  }
}

void MonitorSession::start(std::unique_ptr<Pacer> pacer) {
  if (running()) {
    throw StateError("monitor already running");
  }
  if (manualMode_ || stopped_) {
    throw StateError("cannot start(): session was used in manual mode or "
                     "already stopped");
  }
  pacer_ = pacer ? std::move(pacer) : std::make_unique<RealPacer>();
  thread_ = std::thread([this] { monitorLoop(); });
}

void MonitorSession::stop() {
  if (!running()) {
    return;
  }
  pacer_->requestStop();
  thread_.join();
  // Final sample so short runs still produce a report.  stop() is called
  // from application shutdown paths; it must never throw.
  try {
    sampleOnce(pacer_->elapsedSeconds());
  } catch (const std::exception& e) {
    ++samplesDropped_;
    log::warn() << "final sample dropped: " << e.what();
  } catch (...) {
    ++samplesDropped_;
    log::warn() << "final sample dropped: unknown exception";
  }
  stopped_ = true;
}

void MonitorSession::sampleNow(double timeSeconds) {
  if (running()) {
    throw StateError("cannot sampleNow() while the async monitor runs");
  }
  if (stopped_) {
    throw StateError("session is stopped; results are frozen");
  }
  manualMode_ = true;
  sampleOnce(timeSeconds);
}

namespace {

template <typename T>
std::size_t capacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t MonitorSession::historyBytes() const {
  std::size_t bytes = capacityBytes(healthSeries_) +
                      capacityBytes(memTracker_->samples());
  for (const auto& [tid, record] : lwpTracker_->records()) {
    bytes += capacityBytes(record.samples) +
             capacityBytes(record.affinityChanges);
  }
  for (const auto& [cpu, record] : hwtTracker_->records()) {
    bytes += capacityBytes(record.samples);
  }
  for (const auto& record : gpuTracker_->records()) {
    bytes += capacityBytes(record.samples);
  }
  return bytes;
}

MonitorHealth MonitorSession::health() const {
  MonitorHealth out;
  out.samplesTaken = samplesTaken_;
  out.samplesDegraded = samplesDegraded_;
  out.samplesDropped = samplesDropped_;
  out.loopOverruns = loopOverruns_;
  out.subsystems = {lwpGuard_.health(), hwtGuard_.health()};
  if (config_.monitorMemory) {
    out.subsystems.push_back(memGuard_.health());
  }
  if (config_.monitorGpu) {
    out.subsystems.push_back(gpuGuard_.health());
  }
  out.subsystems.push_back(progressGuard_.health());
  return out;
}

std::vector<Finding> MonitorSession::analyze() const {
  ContentionAnalyzer analyzer;
  return analyzer.analyze(lwpTracker_->records(), hwtTracker_->records(),
                          affinity_, config_.jiffiesPerPeriod(), duration_);
}

std::string MonitorSession::report() const {
  ZS_TRACE_SCOPE("zs.report");
  ReportInput input;
  input.identity = identity_;
  input.durationSeconds = duration_;
  input.processAffinity = affinity_;
  input.lwps = &lwpTracker_->records();
  input.hwts = &hwtTracker_->records();
  if (config_.monitorGpu && !gpuTracker_->records().empty()) {
    input.gpus = &gpuTracker_->records();
  }
  if (config_.monitorMemory) {
    input.memory = &memTracker_->samples();
  }
  input.findings = analyze();
  const MonitorHealth health = this->health();
  input.health = &health;
  std::string rendered = Reporter::render(input);
  if (trace::TraceRecorder::instance().enabled()) {
    rendered += trace::renderSelfProfile();
    rendered += "Sample history: " + std::to_string(historyBytes()) +
                " bytes retained\n";
  }
  return rendered;
}

void MonitorSession::writeLog(std::ostream& out) const {
  ZS_TRACE_SCOPE("zs.export.csv");
  out << report();
  if (!config_.csvExport) {
    return;
  }
  out << "\n=== CSV: LWP time series ===\n";
  CsvExporter::writeLwpSeries(out, lwpTracker_->records());
  out << "\n=== CSV: HWT time series ===\n";
  CsvExporter::writeHwtSeries(out, hwtTracker_->records());
  if (config_.monitorMemory) {
    out << "\n=== CSV: memory time series ===\n";
    CsvExporter::writeMemorySeries(out, memTracker_->samples());
  }
  if (config_.monitorGpu && !gpuTracker_->records().empty()) {
    out << "\n=== CSV: GPU time series ===\n";
    CsvExporter::writeGpuSeries(out, gpuTracker_->records());
  }
  if (commRecorder_ != nullptr) {
    out << "\n=== CSV: MPI point-to-point ===\n";
    CsvExporter::writeCommSeries(out, *commRecorder_);
  }
  out << "\n=== CSV: monitor health ===\n";
  CsvExporter::writeHealthSeries(out, healthSeries_);
}

std::string MonitorSession::writeLogFile() const {
  const std::string path = config_.logPrefix + "." +
                           std::to_string(identity_.rank) + "." +
                           std::to_string(identity_.pid) + ".log";
  std::ofstream out(path);
  if (!out) {
    throw StateError("cannot open log file " + path);
  }
  writeLog(out);
  return path;
}

}  // namespace zerosum::core
