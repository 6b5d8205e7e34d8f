// monitor: ZeroSum inside an application.  The benchmark process hosts a
// miniQMC proxy on nproc-1 threads (each a one-thread team looping over
// fixed-size chunks, so the LWP set stays stable) and samples itself: a
// MonitorSession over the live /proc (makeRealProcFs) and 8 simulated
// GCDs, a SessionPublisher with an attached aggregator Client, and an
// in-process daemon over the pipe transport, all on the main thread.
//
// Open loop: one sampling period every kPeriod; op = sampleNow + publish
// (what the application pays per period), fresh = sample time -> the
// daemon's ack covering its records.  Closed loop: periods back to back;
// rate = periods per second.
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/transport.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "gpu/simulated.hpp"
#include "harness.hpp"
#include "procfs/procfs.hpp"
#include "proxyapps/miniqmc.hpp"

namespace zsb {

using namespace zerosum;

namespace {

constexpr double kPeriod = 0.002;  // 500 Hz: thousands of periods per run
constexpr double kOpenShare = 0.7;  // of the run: open loop, then closed
/// Closed-loop periods: a fixed count, so every run keeps the same
/// history in memory (the session's footprint grows per sample).
constexpr std::uint64_t kClosedPeriods = 8000;
constexpr int kGpus = 8;           // one Frontier node's GCD count

/// Counts and (when tracing) spans every /proc read.
class TimingProcFs final : public procfs::ProcFs {
 public:
  explicit TimingProcFs(std::unique_ptr<procfs::ProcFs> inner)
      : inner_(std::move(inner)) {}

  mutable std::uint64_t calls = 0;
  mutable std::uint64_t bytes = 0;

  [[nodiscard]] int selfPid() const override { return inner_->selfPid(); }
  [[nodiscard]] std::vector<int> listPids() const override {
    return inner_->listPids();
  }
  [[nodiscard]] std::vector<int> listTasks(int pid) const override {
    Scope s("procfs:listTasks");
    count(0);
    return inner_->listTasks(pid);
  }
  [[nodiscard]] std::string readProcessStatus(int pid) const override {
    Scope s("procfs:readProcessStatus");
    return counted(inner_->readProcessStatus(pid));
  }
  [[nodiscard]] std::string readTaskStat(int pid, int tid) const override {
    Scope s("procfs:readTaskStat");
    return counted(inner_->readTaskStat(pid, tid));
  }
  [[nodiscard]] std::string readTaskStatus(int pid, int tid) const override {
    Scope s("procfs:readTaskStatus");
    return counted(inner_->readTaskStatus(pid, tid));
  }
  [[nodiscard]] std::string readMeminfo() const override {
    Scope s("procfs:readMeminfo");
    return counted(inner_->readMeminfo());
  }
  [[nodiscard]] std::string readStat() const override {
    Scope s("procfs:readStat");
    return counted(inner_->readStat());
  }
  [[nodiscard]] std::string readLoadavg() const override {
    Scope s("procfs:readLoadavg");
    return counted(inner_->readLoadavg());
  }
  void readProcessStatusInto(int pid, std::string& buf) const override {
    Scope s("procfs:readProcessStatus");
    inner_->readProcessStatusInto(pid, buf);
    count(buf.size());
  }
  void readTaskStatInto(int pid, int tid, std::string& buf) const override {
    Scope s("procfs:readTaskStat");
    inner_->readTaskStatInto(pid, tid, buf);
    count(buf.size());
  }
  void readTaskStatusInto(int pid, int tid, std::string& buf) const override {
    Scope s("procfs:readTaskStatus");
    inner_->readTaskStatusInto(pid, tid, buf);
    count(buf.size());
  }
  void readMeminfoInto(std::string& buf) const override {
    Scope s("procfs:readMeminfo");
    inner_->readMeminfoInto(buf);
    count(buf.size());
  }
  void readStatInto(std::string& buf) const override {
    Scope s("procfs:readStat");
    inner_->readStatInto(buf);
    count(buf.size());
  }
  void readLoadavgInto(std::string& buf) const override {
    Scope s("procfs:readLoadavg");
    inner_->readLoadavgInto(buf);
    count(buf.size());
  }
  void listTasksInto(int pid, std::vector<int>& out) const override {
    Scope s("procfs:listTasks");
    inner_->listTasksInto(pid, out);
    count(0);
  }

 private:
  void count(std::size_t n) const {
    ++calls;
    bytes += n;
  }
  std::string counted(std::string body) const {
    count(body.size());
    return body;
  }

  std::unique_ptr<procfs::ProcFs> inner_;
};

/// Spans every device query.
class TimingGpu final : public gpu::GpuDevice {
 public:
  explicit TimingGpu(std::shared_ptr<gpu::GpuDevice> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] int visibleIndex() const override {
    return inner_->visibleIndex();
  }
  [[nodiscard]] int physicalIndex() const override {
    return inner_->physicalIndex();
  }
  [[nodiscard]] std::string model() const override { return inner_->model(); }
  [[nodiscard]] gpu::Sample query() override {
    Scope s("gpu:query");
    return inner_->query();
  }
  [[nodiscard]] gpu::MemoryInfo memoryInfo() const override {
    Scope s("gpu:memoryInfo");
    return inner_->memoryInfo();
  }

 private:
  std::shared_ptr<gpu::GpuDevice> inner_;
};

proxyapps::MiniQmcParams chunkParams(std::uint64_t seed, int thread) {
  proxyapps::MiniQmcParams p;
  p.threads = 1;  // one-thread team: no worker threads come and go
  p.steps = 40;
  p.walkersPerThread = 2;
  p.tiling = 2;
  p.electrons = 32;
  p.seed = seed * 1000003ULL + static_cast<std::uint64_t>(thread);
  return p;
}

/// The system under test: session + GPUs + publisher + client + daemon.
struct MonitorSut {
  std::vector<std::shared_ptr<gpu::SimulatedGpu>> gpus;
  TimingProcFs* procfs = nullptr;  ///< owned by the session (traced runs)
  aggregator::PipeHub hub;
  std::unique_ptr<aggregator::Aggregator> daemon;
  exporter::MetricStream stream;
  std::unique_ptr<exporter::SessionPublisher> publisher;
  std::unique_ptr<core::MonitorSession> session;
  aggregator::Client* client = nullptr;
  std::uint64_t samples = 0;
  double lastGpuAdvance = 0.0;

  MonitorSut(const Options& options, bool timing) {
    daemon = std::make_unique<aggregator::Aggregator>(hub.makeServer());
    gpu::DeviceList devices;
    Rng rng(options.seed ^ 0x6770u);
    for (int i = 0; i < kGpus; ++i) {
      auto dev = std::make_shared<gpu::SimulatedGpu>(
          i, i, "AMD Instinct MI250X", gpu::SimulatedGpuParams{},
          options.seed + static_cast<std::uint64_t>(i));
      dev->setActivity(0.2 + 0.6 * rng.uniform());
      dev->allocate(static_cast<std::uint64_t>(rng.below(4096)) << 20);
      gpus.push_back(dev);
      if (timing) {
        devices.push_back(std::make_shared<TimingGpu>(dev));
      } else {
        devices.push_back(dev);
      }
    }
    std::unique_ptr<procfs::ProcFs> fs = procfs::makeRealProcFs();
    if (timing) {
      auto wrapped = std::make_unique<TimingProcFs>(std::move(fs));
      procfs = wrapped.get();
      fs = std::move(wrapped);
    }
    core::Config cfg;
    cfg.signalHandler = false;
    core::ProcessIdentity identity;
    identity.rank = 0;
    identity.worldSize = 1;
    identity.hostname = "bench-node";
    session = std::make_unique<core::MonitorSession>(cfg, std::move(fs),
                                                     identity, devices);
    publisher = std::make_unique<exporter::SessionPublisher>(&stream);
    aggregator::Hello hello;
    hello.job = "monitor";
    hello.rank = 0;
    hello.worldSize = 1;
    hello.hostname = "bench-node";
    hello.pid = session->identity().pid;
    // The options zerosum::initialize() derives from the ZS_AGG_*
    // defaults (queue 8192, batch 256 records or 1 s).
    aggregator::ClientOptions co;
    co.maxQueueRecords = static_cast<std::size_t>(cfg.aggQueueRecords);
    co.batchRecords = static_cast<std::size_t>(cfg.aggBatchRecords);
    co.batchAgeSeconds = cfg.aggBatchAgeMs / 1000.0;
    publisher->attachAggregator(std::make_unique<aggregator::Client>(
        hub.makeClientTransport(), hello, co));
    client = publisher->aggregatorClient();
    lastGpuAdvance = nowSeconds();
    // Warm-up: every tracker has a previous sample to diff against and
    // the client has connected.
    for (int i = 0; i < 3; ++i) {
      period(nowSeconds());
    }
  }

  /// One sampling period at time t (untimed parts included).
  void period(double t) {
    for (auto& g : gpus) {
      g->advance(t - lastGpuAdvance);
    }
    lastGpuAdvance = t;
    session->sampleNow(t);
    publisher->publish(*session, t);
    ++samples;
  }
};

struct Pass {
  Latencies op;
  Latencies fresh;
  std::vector<double> late;
  double rate = 0.0;
  std::uint64_t periods = 0;
  double pumpSeconds = 0.0;
  double pollSeconds = 0.0;
  std::uint64_t records = 0;  ///< records published
  std::size_t liveLwps = 0;   ///< at the last open-loop period
};

/// Runs one open-loop then one closed-loop phase; traced runs alternate
/// tracing on and off from `start`.
Pass measure(MonitorSut& sut, double start, double seconds, bool traced) {
  Pass pass;
  struct Pending {
    std::uint64_t cumulative;
    double created;
  };
  std::deque<Pending> unseen;
  auto settle = [&](double created, bool openLoop) {
    unseen.push_back({sut.client->counters().recordsEnqueued, created});
    const double p0 = nowSeconds();
    {
      Scope s("aggregator.daemon:poll");
      sut.daemon->poll(p0);
    }
    const double p1 = nowSeconds();
    // Visibility: the records the daemon has ingested into its store.
    const std::uint64_t ingested = sut.daemon->counters().recordsIngested;
    while (!unseen.empty() && unseen.front().cumulative <= ingested) {
      if (openLoop) {
        pass.fresh.add(p1, (p1 - unseen.front().created) * 1e3);
      }
      unseen.pop_front();
    }
    {
      Scope s("aggregator.client:pump");
      sut.client->pump(p1);
    }
    const double p2 = nowSeconds();
    pass.pollSeconds += p1 - p0;
    pass.pumpSeconds += p2 - p1;
  };
  auto onePeriod = [&](double due, bool openLoop) {
    if (traced) {
      Tracer::alternate(start);
    }
    const double t0 = nowSeconds();
    if (openLoop) {
      pass.late.push_back(t0 - due);
    }
    for (auto& g : sut.gpus) {
      g->advance(t0 - sut.lastGpuAdvance);
    }
    sut.lastGpuAdvance = t0;
    const std::uint64_t before = sut.stream.recordsPublished();
    const double s0 = nowSeconds();
    {
      Scope op("op:period", Tracer::newOp());
      {
        Scope s("core:sampleNow");
        sut.session->sampleNow(t0);
      }
      {
        Scope s("export:publish");
        sut.publisher->publish(*sut.session, t0);
      }
    }
    const double s1 = nowSeconds();
    ++sut.samples;
    ++pass.periods;
    pass.records += sut.stream.recordsPublished() - before;
    if (openLoop) {
      pass.op.add(s1, (s1 - s0) * 1e3);
    }
    settle(t0, openLoop);
  };

  const double openUntil = start + kOpenShare * seconds;
  std::uint64_t k = 0;
  for (double due = start; due < openUntil;
       due = start + static_cast<double>(++k) * kPeriod) {
    sleepUntil(due);
    onePeriod(due, true);
  }
  pass.liveLwps = sut.session->lwps().liveCount();
  const double closedStart = nowSeconds();
  const double closedUntil = start + seconds + 5.0;  // a stall cannot hang
  std::uint64_t closedPeriods = 0;
  Throughput done;
  while (closedPeriods < kClosedPeriods && nowSeconds() < closedUntil) {
    onePeriod(0.0, false);
    ++closedPeriods;
    done.add(nowSeconds(), 1.0);
  }
  Tracer::setEnabled(false);
  pass.rate = done.sliced(closedStart, nowSeconds());
  return pass;
}

}  // namespace

void runMonitor(const Options& options, Sheet& sheet) {
  const int appThreads = std::max(1, options.nproc - 1);

  // --- inputs: the unmonitored reference checksum of each app thread's
  // chunk (one-thread teams, so no extra LWPs appear) --------------------
  std::vector<proxyapps::MiniQmcResult> reference;
  for (int t = 0; t < appThreads; ++t) {
    reference.push_back(proxyapps::runMiniQmc(chunkParams(options.seed, t)));
  }

  // rss_mb covers the system under test, not the input generation.
  resetPeakRss();

  // --- setup: session + publisher + client + daemon, median -------------
  std::unique_ptr<MonitorSut> sut;
  const double setup = medianSetup(
      [&] { sut.reset(); },
      [&] { sut = std::make_unique<MonitorSut>(options, options.trace); });

  // --- the application -----------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> badChunks{0};
  std::vector<std::thread> app;
  for (int t = 0; t < appThreads; ++t) {
    app.emplace_back([&, t] {
      // The app owns CPUs 0..nproc-2; the sampler (this thread) stays
      // unpinned and so keeps the last CPU to itself.
      pinThread(t);
      const auto params = chunkParams(options.seed, t);
      const auto& ref = reference[static_cast<std::size_t>(t)];
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = proxyapps::runMiniQmc(params);
        if (r.localEnergy != ref.localEnergy || r.moves != ref.moves) {
          badChunks.fetch_add(1);
        }
        chunks.fetch_add(1);
      }
    });
  }
  // Let every app thread start before the first measured sample.
  sleepUntil(nowSeconds() + 0.05);

  if (sut->procfs != nullptr) {
    sut->procfs->calls = 0;
    sut->procfs->bytes = 0;
  }
  const double start = nowSeconds();
  const Pass pass = measure(*sut, start, options.seconds, options.trace);

  stop.store(true);
  for (auto& th : app) {
    th.join();
  }

  // --- drain and check -------------------------------------------------------
  const double end = nowSeconds();
  auto client = sut->publisher->closeAggregator(end);
  sut->daemon->poll(end);
  client->pump(end);
  const core::MonitorHealth health = sut->session->health();
  const auto& cc = client->counters();
  const auto& dc = sut->daemon->counters();
  const std::uint64_t failures = health.samplesDegraded +
                                 health.samplesDropped + cc.recordsDropped +
                                 cc.recordsCoarsened;
  sheet.attempted(sut->samples + cc.recordsEnqueued);
  sheet.failed(failures);
  sheet.check(health.samplesTaken == sut->samples,
              "sample count: session took " +
                  std::to_string(health.samplesTaken) + ", the loop drove " +
                  std::to_string(sut->samples));
  sheet.check(health.samplesDegraded == 0 && health.samplesDropped == 0,
              "samples degraded or dropped");
  sheet.check(sut->session->lwps().records().size() ==
                      static_cast<std::size_t>(appThreads + 1) &&
                  pass.liveLwps == static_cast<std::size_t>(appThreads + 1),
              "LWP count " +
                  std::to_string(sut->session->lwps().records().size()) +
                  " (live " + std::to_string(pass.liveLwps) +
                  ") != app threads + main thread (" +
                  std::to_string(appThreads + 1) + ")");
  sheet.check(chunks.load() > 0 && badChunks.load() == 0,
              "miniQMC checksum differs from the unmonitored reference in " +
                  std::to_string(badChunks.load()) + " of " +
                  std::to_string(chunks.load()) + " chunks");
  sheet.check(dc.recordsIngested == cc.recordsEnqueued &&
                  cc.recordsAcked <= cc.recordsEnqueued &&
                  cc.recordsDropped == 0,
              "daemon ingested " + std::to_string(dc.recordsIngested) +
                  " of " + std::to_string(cc.recordsEnqueued) +
                  " published records (acked " +
                  std::to_string(cc.recordsAcked) + ")");

  // --- metrics ---------------------------------------------------------------
  const double failFrac =
      static_cast<double>(failures) /
      static_cast<double>(std::max<std::uint64_t>(1, sut->samples));
  if (!options.trace) {
    sheet.e2e("setup_s", setup, "s");
    sheet.e2e("rss_mb", peakRssMiB(), "MiB");
    sheet.note("op_p50_ms", pass.op.sliced(0.5), "ms");
    sheet.note("op_p99_ms", pass.op.sliced(0.99), "ms");
    sheet.e2e("fresh_p50_ms", pass.fresh.sliced(0.5), "ms");
    sheet.note("fresh_p99_ms", pass.fresh.sliced(0.99), "ms");
    sheet.note("rate_per_s", pass.rate, "1/s");
    sheet.note("sample_p50_us", pass.op.sliced(0.5) * 1e3, "us");
    sheet.note("sample_p99_us", pass.op.sliced(0.99) * 1e3, "us");
    sheet.note("periods (open loop)", static_cast<double>(pass.op.size()),
               "count");
    sheet.note("fail_frac", failFrac, "ratio");
    sheet.note("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
    return;
  }
  // Span totals cover the traced slices only; counters the whole run.
  const auto byLayer = Tracer::byLayer();
  const double periods = static_cast<double>(std::max<std::uint64_t>(1, pass.periods));
  const double tracedPeriods = [&] {
    const auto it = byLayer.find("op");
    return it == byLayer.end() ? 1.0
                               : static_cast<double>(std::max<std::uint64_t>(
                                     1, it->second.spans));
  }();
  auto total = [&](const std::string& layer) {
    const auto it = byLayer.find(layer);
    return it == byLayer.end() ? 0.0 : it->second.totalSeconds;
  };
  auto self = [&](const std::string& layer) {
    const auto it = byLayer.find(layer);
    return it == byLayer.end() ? 0.0 : it->second.selfSeconds;
  };
  sheet.layer("procfs.read_us", total("procfs") / tracedPeriods * 1e6, "us");
  sheet.layer("procfs.calls", static_cast<double>(sut->procfs->calls) / periods, "count");
  sheet.layer("procfs.bytes", static_cast<double>(sut->procfs->bytes) / periods, "B");
  sheet.layer("gpu.query_us", total("gpu") / tracedPeriods * 1e6, "us");
  sheet.layer("core.self_us", self("core") / tracedPeriods * 1e6, "us");
  sheet.layer("export.publish_us", total("export") / tracedPeriods * 1e6, "us");
  sheet.layer("export.records", static_cast<double>(pass.records) / periods,
              "count");
  sheet.layer("aggregator.client.pump_us", pass.pumpSeconds / periods * 1e6,
              "us");
  sheet.layer("aggregator.daemon.poll_us", pass.pollSeconds / periods * 1e6,
              "us");
  sheet.layer("fresh_p99_ms", pass.fresh.sliced(0.99), "ms");
  sheet.layer("op_p50_ms", pass.op.slices(start, false).sliced(0.5), "ms");
  sheet.layer("op_p99_ms", pass.op.slices(start, false).sliced(0.99), "ms");
  sheet.layer("rate_per_s", pass.rate, "1/s");
  sheet.layer("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
  sheet.layer("fail_frac", failFrac, "ratio");
  const double off50 = pass.op.slices(start, false).overall(0.5);
  const double on50 = pass.op.slices(start, true).overall(0.5);
  sheet.layer("trace.overhead_pct",
              off50 > 0.0 ? (on50 - off50) / off50 * 100.0 : 0.0, "%");
  sheet.layer("trace.spans", static_cast<double>(Tracer::spanCount()), "count");
  for (const char* layer : {"core", "procfs", "gpu", "export",
                            "aggregator.client"}) {
    sheet.layer(std::string("self.") + layer + "_ms", self(layer) * 1e3, "ms");
  }
}

}  // namespace zsb
