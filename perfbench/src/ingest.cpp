// ingest: the durable write path, nothing read.  nproc ranks each run an
// aggregator Client over loopback TCP into one daemon with a threaded
// TsdbWriter over a tsdb::Engine at fsync=batch — the
// `zerosum-aggd --data-dir --async-writer` configuration.  Batches carry
// one Frontier rank's per-period metric set (captured from
// SessionPublisher over SimProcFs), pre-built in setup; the generating
// threads only stamp times and enqueue.
//
// Threads: the daemon loop (main), the writer, and nproc-2 generator
// threads sharing the rank clients; nproc TCP connections.
//
// Open loop at kOfferedRps: op = enqueueIds cost per period batch (what
// a rank pays), fresh = scheduled enqueue -> durable ack covering it.
// Closed loop with at most kInflight unacked records per rank: rate =
// durably acked records per second.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/tcp.hpp"
#include "aggregator/writer.hpp"
#include "harness.hpp"
#include "shapes.hpp"
#include "trace/metrics.hpp"
#include "tsdb/engine.hpp"

namespace zsb {

using namespace zerosum;

namespace {

constexpr double kOfferedRps = 120000.0;   // well below saturation
constexpr double kOpenShare = 0.6;         // of the run: open loop first
constexpr std::uint64_t kInflight = 4096;  // closed loop, per rank
constexpr double kDataStep = 1.0 / 128.0;  // data seconds per period
constexpr int kPeriodsPerWindow = 128;     // fine window = 1 s
constexpr std::uint64_t kNewestWindows = 8;  // range checks pick among these

double dataTime(std::uint64_t period) {
  return 1.0 + static_cast<double>(period) * kDataStep;
}

struct Rank {
  int rank = 0;
  std::unique_ptr<aggregator::Client> client;
  std::vector<std::vector<aggregator::IdRecord>> periods;
  std::uint64_t next = 0;  ///< next period index to send
  struct Unacked {
    std::uint64_t cumulative;
    double due;
  };
  std::deque<Unacked> unacked;  ///< generator thread only
  /// The same sends, consumed by the daemon loop as the daemon ingests
  /// them (visibility), so guarded.
  std::unique_ptr<std::mutex> visibleMutex = std::make_unique<std::mutex>();
  std::deque<Unacked> unseen;
};

struct IngestSut {
  std::unique_ptr<tsdb::Engine> engine;
  std::unique_ptr<aggregator::TsdbWriter> writer;
  std::unique_ptr<aggregator::Aggregator> daemon;
  std::vector<Rank> ranks;

  IngestSut(const std::string& dir, int nranks,
            const std::vector<std::vector<std::vector<aggregator::IdRecord>>>&
                inputs) {
    std::filesystem::remove_all(dir);
    tsdb::EngineOptions eo;
    eo.fsync = tsdb::FsyncPolicy::kBatch;
    engine = std::make_unique<tsdb::Engine>(dir, eo);
    aggregator::WriterOptions wo;
    wo.threaded = true;
    writer = std::make_unique<aggregator::TsdbWriter>(engine.get(), wo);
    auto server = std::make_unique<aggregator::TcpServer>(0);
    const int port = server->port();
    daemon = std::make_unique<aggregator::Aggregator>(std::move(server));
    daemon->attachWriter(writer.get());
    for (int r = 0; r < nranks; ++r) {
      aggregator::Hello hello;
      hello.job = "ingest";
      hello.rank = r;
      hello.worldSize = nranks;
      hello.hostname = "frontier" + std::to_string(r / 8);
      hello.pid = 1000 + r;
      Rank rank;
      rank.rank = r;
      rank.client = std::make_unique<aggregator::Client>(
          std::make_unique<aggregator::TcpTransport>("127.0.0.1", port, 250),
          hello);
      rank.periods = inputs[static_cast<std::size_t>(r)];
      ranks.push_back(std::move(rank));
    }
    // Warm-up: enough periods per rank for one full client batch,
    // connected and durably acked.
    const std::size_t perBatch = aggregator::ClientOptions{}.batchRecords;
    for (Rank& r : ranks) {
      while (r.client->counters().recordsEnqueued < perBatch) {
        send(r, nowSeconds());
      }
    }
    const double deadline = nowSeconds() + 10.0;
    for (;;) {
      const double now = nowSeconds();
      daemon->poll(now);
      bool acked = true;
      for (Rank& r : ranks) {
        r.client->pump(nowSeconds());
        acked = acked && r.client->counters().recordsAcked > 0;
      }
      if (acked) {
        break;
      }
      if (now > deadline) {
        throw std::runtime_error("ingest warm-up was never acked");
      }
    }
    for (Rank& r : ranks) {
      r.unacked.clear();
      r.unseen.clear();
    }
  }

  ~IngestSut() {
    ranks.clear();
    daemon.reset();
    writer.reset();
    engine.reset();
  }

  /// Enqueues rank r's next period; returns the enqueue wall time.
  static double send(Rank& r, double due) {
    auto& batch = r.periods[r.next % kPool];
    const double t = dataTime(r.next);
    for (auto& rec : batch) {
      rec.timeSeconds = t;
    }
    const double e0 = nowSeconds();
    {
      Scope s("aggregator.client:enqueueIds", Tracer::newOp());
      r.client->enqueueIds(batch, e0);
    }
    const double e1 = nowSeconds();
    ++r.next;
    const std::uint64_t cumulative = r.client->counters().recordsEnqueued;
    r.unacked.push_back({cumulative, due});
    std::lock_guard<std::mutex> lock(*r.visibleMutex);
    r.unseen.push_back({cumulative, due});
    return e1 - e0;
  }
};

struct Pass {
  Latencies op;     ///< enqueue cost, ms
  Latencies fresh;  ///< due -> ingested at the daemon, ms (open loop)
  Latencies ack;    ///< due -> durable ack at the client, ms (open loop)
  std::vector<double> late;
  Throughput durable;  ///< records acked durable, closed loop
  double closedStart = 0.0;
  double rate = 0.0;
  // generator-side layer samples
  double pumpSeconds = 0.0;
  std::uint64_t pumps = 0;
  double queueDepthSum = 0.0;
  // daemon-side layer samples
  double pollSeconds = 0.0;
  double loopSeconds = 0.0;
  std::uint64_t polls = 0;
  double backlogSum = 0.0;
  std::uint64_t pressured = 0;
  double writerPendingSum = 0.0;
  // disk footprint, observed while retention has deleted nothing
  double diskBytes = 0.0;       ///< WAL + segments
  double diskSamples = 0.0;     ///< samples appended at that moment
  double segmentBytes = 0.0;    ///< at the newest compaction
  double segmentSamples = 0.0;  ///< samples covered by those segments
};

/// Generator thread body: ranks[g], ranks[g + G], ... for `seconds`.
void generate(std::vector<Rank*> mine, int nranks, double start,
              double seconds, Pass& out, std::mutex& outMutex) {
  Pass local;
  const double openUntil = start + kOpenShare * seconds;
  const double until = start + seconds;
  const std::size_t records = mine.front()->periods.front().size();
  // Per-rank period rate; ranks are staggered across one period so
  // sends do not arrive in bursts.
  const double periodsPerSecond = kOfferedRps /
                                  static_cast<double>(records) /
                                  static_cast<double>(nranks);
  std::vector<double> offset(mine.size());
  std::vector<double> due(mine.size());
  std::vector<std::uint64_t> sent(mine.size(), 0);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    offset[i] = static_cast<double>(mine[i]->rank) /
                static_cast<double>(nranks);
    due[i] = start + offset[i] / periodsPerSecond;
  }
  auto pumpAll = [&](bool closed) {
    for (Rank* r : mine) {
      const double p0 = nowSeconds();
      {
        Scope s("aggregator.client:pump", Tracer::newOp());
        r->client->pump(p0);
      }
      const double p1 = nowSeconds();
      local.pumpSeconds += p1 - p0;
      ++local.pumps;
      const auto& c = r->client->counters();
      local.queueDepthSum += static_cast<double>(
          c.recordsEnqueued - c.recordsSent - c.recordsDropped);
      while (!r->unacked.empty() &&
             r->unacked.front().cumulative <= c.recordsAcked) {
        if (!closed) {
          local.ack.add(p1, (p1 - r->unacked.front().due) * 1e3);
        }
        r->unacked.pop_front();
      }
    }
  };

  // --- open loop ---------------------------------------------------------
  while (nowSeconds() < openUntil) {
    for (std::size_t i = 0; i < mine.size(); ++i) {
      while (due[i] <= nowSeconds() && due[i] < openUntil) {
        local.late.push_back(nowSeconds() - due[i]);
        const double cost = IngestSut::send(*mine[i], due[i]);
        local.op.add(nowSeconds(), cost * 1e3);
        ++sent[i];
        due[i] = start +
                 (offset[i] + static_cast<double>(sent[i])) / periodsPerSecond;
      }
    }
    pumpAll(false);
    const double next = *std::min_element(due.begin(), due.end());
    sleepUntil(std::min(next, nowSeconds() + 0.0002));
  }
  // Let the open-loop tail get acked; the closed loop starts at a fixed
  // time on every generator thread.
  const double closedStart = openUntil + 0.3;
  while (nowSeconds() < closedStart) {
    pumpAll(false);
    sleepUntil(std::min(closedStart, nowSeconds() + 0.0002));
  }

  // --- closed loop -------------------------------------------------------
  std::vector<std::uint64_t> ackedSeen(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ackedSeen[i] = mine[i]->client->counters().recordsAcked;
  }
  while (nowSeconds() < until) {
    bool sentAny = false;
    for (Rank* r : mine) {
      const auto& c = r->client->counters();
      if (c.recordsEnqueued - c.recordsAcked + records <= kInflight) {
        IngestSut::send(*r, nowSeconds());
        sentAny = true;
      }
    }
    pumpAll(true);
    const double now = nowSeconds();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const std::uint64_t acked = mine[i]->client->counters().recordsAcked;
      local.durable.add(now, static_cast<double>(acked - ackedSeen[i]));
      ackedSeen[i] = acked;
    }
    if (!sentAny) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  local.closedStart = closedStart;

  std::lock_guard<std::mutex> lock(outMutex);
  out.op.append(local.op);
  out.ack.append(local.ack);
  out.late.insert(out.late.end(), local.late.begin(), local.late.end());
  out.durable.append(local.durable);
  out.closedStart = local.closedStart;
  out.pumpSeconds += local.pumpSeconds;
  out.pumps += local.pumps;
  out.queueDepthSum += local.queueDepthSum;
}

/// One measured pass: generator threads plus the daemon loop here;
/// traced runs alternate tracing on and off from `start`.
Pass measure(IngestSut& sut, double start, double seconds, int generators,
             bool traced) {
  Pass pass;
  std::mutex passMutex;
  std::atomic<int> running{generators};
  std::vector<std::thread> threads;
  for (int g = 0; g < generators; ++g) {
    std::vector<Rank*> mine;
    for (std::size_t r = static_cast<std::size_t>(g); r < sut.ranks.size();
         r += static_cast<std::size_t>(generators)) {
      mine.push_back(&sut.ranks[r]);
    }
    threads.emplace_back([&, mine, g] {
      pinThread(generators > 1 ? 2 + g : 2);
      generate(mine, static_cast<int>(sut.ranks.size()), start, seconds,
               pass, passMutex);
      running.fetch_sub(1);
    });
  }
  pinThread(0);  // the daemon loop; the writer thread keeps free affinity
  const double loopStart = nowSeconds();
  const double freshUntil = start + kOpenShare * seconds;
  double nextDiskLook = loopStart;
  std::uint64_t compactionsSeen = 0;
  while (running.load() > 0) {
    if (traced) {
      Tracer::alternate(start);
    }
    if (nowSeconds() >= nextDiskLook) {
      nextDiskLook = nowSeconds() + 0.002;
      std::lock_guard<std::mutex> lock(sut.writer->engineMutex());
      const tsdb::Engine& e = *sut.engine;
      if (e.counters().segmentsDropped == 0) {
        pass.diskBytes =
            static_cast<double>(e.walSizeBytes() + e.segmentBytes());
        pass.diskSamples = static_cast<double>(e.counters().samplesAppended);
        if (e.counters().compactions != compactionsSeen) {
          compactionsSeen = e.counters().compactions;
          pass.segmentBytes = static_cast<double>(e.segmentBytes());
          pass.segmentSamples =
              static_cast<double>(e.counters().samplesAppended);
        }
      }
    }
    const auto before = sut.daemon->counters();
    const double p0 = nowSeconds();
    {
      Scope s("aggregator.daemon:poll", Tracer::newOp());
      sut.daemon->poll(p0);
    }
    const double p1 = nowSeconds();
    pass.pollSeconds += p1 - p0;
    ++pass.polls;
    const std::size_t backlog = sut.daemon->ingestBacklog();
    pass.backlogSum += static_cast<double>(backlog);
    pass.writerPendingSum += static_cast<double>(sut.writer->pending());
    if (sut.daemon->pressure() != aggregator::PressureLevel::kOk) {
      ++pass.pressured;
    }
    // Visibility: each rank's records the daemon has ingested (into the
    // store and the durable writer's queue).
    // Open-loop sends only: closed-loop sends are due when sent.
    if (sut.daemon->counters().recordsIngested != before.recordsIngested) {
      for (const aggregator::SourceInfo& src : sut.daemon->sources()) {
        Rank& r = sut.ranks[static_cast<std::size_t>(src.hello.rank)];
        std::lock_guard<std::mutex> lock(*r.visibleMutex);
        while (!r.unseen.empty() && r.unseen.front().cumulative <= src.records) {
          if (r.unseen.front().due < freshUntil) {
            pass.fresh.add(p1, (p1 - r.unseen.front().due) * 1e3);
          }
          r.unseen.pop_front();
        }
      }
    }
    const auto& after = sut.daemon->counters();
    if (after.framesIngested == before.framesIngested &&
        after.acksSent == before.acksSent && backlog == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  pass.loopSeconds = nowSeconds() - loopStart;
  Tracer::setEnabled(false);
  for (auto& t : threads) {
    t.join();
  }
  pass.rate = pass.durable.sliced(pass.closedStart, start + seconds);
  return pass;
}

}  // namespace

void runIngest(const Options& options, Sheet& sheet) {
  const int nranks = std::max(1, options.nproc);
  const int generators = std::max(1, options.nproc - 2);

  // --- inputs ----------------------------------------------------------------
  const auto& metrics = frontierRankMetrics();
  std::vector<std::vector<std::vector<aggregator::IdRecord>>> inputs;
  for (int r = 0; r < nranks; ++r) {
    inputs.push_back(buildPeriods(options.seed, r, metrics));
  }

  // rss_mb covers the system under test, not the input generation.
  resetPeakRss();

  // --- setup: engine + writer + daemon + connected clients, median ------
  std::unique_ptr<IngestSut> sut;
  const std::string dir = options.workdir + "/ingest.tsdb";
  const double setup = medianSetup(
      [&] { sut.reset(); },
      [&] { sut = std::make_unique<IngestSut>(dir, nranks, inputs); });

  auto engineCounters = [&] {
    std::lock_guard<std::mutex> lock(sut->writer->engineMutex());
    return sut->engine->counters();
  };
  auto& registry = trace::MetricsRegistry::instance();
  auto& stageSend = registry.latency("zs.agg.daemon.latency.enqueue_to_send_seconds");
  auto& stageIngest = registry.latency("zs.agg.daemon.latency.send_to_ingest_seconds");
  auto& stageDurable =
      registry.latency("zs.agg.daemon.latency.ingest_to_durable_seconds");

  // Counter baselines: the per-layer counts cover the measured pass only.
  const aggregator::WriterCounters writerBefore = sut->writer->counters();
  const aggregator::DaemonCounters daemonBefore = sut->daemon->counters();
  const tsdb::EngineCounters engineBefore = engineCounters();
  std::uint64_t sentBefore = 0, batchesBefore = 0, enqueuedBefore = 0,
                coarsenedBefore = 0;
  for (Rank& r : sut->ranks) {
    sentBefore += r.client->counters().recordsSent;
    batchesBefore += r.client->counters().batchesSent;
    enqueuedBefore += r.client->counters().recordsEnqueued;
    coarsenedBefore += r.client->counters().recordsCoarsened;
  }
  stageSend.reset();
  stageIngest.reset();
  stageDurable.reset();
  const double start = nowSeconds() + 0.01;
  const Pass pass =
      measure(*sut, start, options.seconds, generators, options.trace);

  // --- drain: every enqueued record durably acked ---------------------------
  const double drainDeadline = nowSeconds() + 10.0;
  for (;;) {
    sut->daemon->poll(nowSeconds());
    bool done = true;
    for (Rank& r : sut->ranks) {
      r.client->pump(nowSeconds());
      done = done && r.client->counters().recordsAcked ==
                         r.client->counters().recordsEnqueued;
    }
    if (done || nowSeconds() > drainDeadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sut->daemon->drainBacklog(nowSeconds());

  // --- checks ------------------------------------------------------------------
  std::uint64_t enqueued = 0, acked = 0, dropped = 0, coarsened = 0, sent = 0,
                batches = 0;
  for (Rank& r : sut->ranks) {
    const auto& c = r.client->counters();
    enqueued += c.recordsEnqueued;
    acked += c.recordsAcked;
    dropped += c.recordsDropped;
    coarsened += c.recordsCoarsened;
    sent += c.recordsSent;
    batches += c.batchesSent;
  }
  const std::uint64_t failures = dropped + coarsened + (enqueued - std::min(enqueued, acked));
  sheet.attempted(enqueued);
  sheet.failed(failures);
  sheet.check(dropped == 0 && coarsened == 0,
              "records dropped (" + std::to_string(dropped) +
                  ") or coarsened (" + std::to_string(coarsened) + ")");
  sheet.check(acked == enqueued, "acked " + std::to_string(acked) + " of " +
                                     std::to_string(enqueued) + " records");

  std::uint64_t appended = 0;
  std::uint64_t segmentsDropped = 0;
  {
    std::lock_guard<std::mutex> lock(sut->writer->engineMutex());
    tsdb::Engine& engine = *sut->engine;
    appended = engine.counters().samplesAppended;
    segmentsDropped = engine.counters().segmentsDropped;
    sheet.check(appended == acked, "engine appended " + std::to_string(appended) +
                                       " samples, clients saw " +
                                       std::to_string(acked) + " acked");
    // Spot checks: whole one-second windows of seeded series against the
    // generator's reference min/avg/max/count.
    Rng pick(options.seed ^ 0x5eedULL);
    const auto& metrics = frontierRankMetrics();
    for (int check = 0; check < 8; ++check) {
      Rank& r = sut->ranks[pick.below(sut->ranks.size())];
      const std::uint64_t windows = r.next / kPeriodsPerWindow;
      if (windows <= kNewestWindows) {
        sheet.check(false, "too few periods sent for a range check");
        break;
      }
      // One of the newest whole windows: retention deletes the oldest
      // segments first, and a window can straddle two segments.  Period
      // k has data time 1 + k/128, so window `win` holds periods
      // [(win - 1) * 128, win * 128).
      const std::uint64_t win = windows - pick.below(kNewestWindows);
      const std::size_t m = pick.below(metrics.size());
      aggregator::Rollup want;
      for (std::uint64_t k = (win - 1) * kPeriodsPerWindow;
           k < win * kPeriodsPerWindow; ++k) {
        want.merge(sampleValue(options.seed, r.rank, m, k));
      }
      aggregator::SeriesKey key{"ingest", r.rank, metrics[m]};
      const auto rows = engine.range(key, static_cast<double>(win) + 0.25,
                                     static_cast<double>(win) + 0.75);
      const bool ok = rows.size() == 1 && rows[0].rollup.count == want.count &&
                      rows[0].rollup.min == want.min &&
                      rows[0].rollup.max == want.max &&
                      rows[0].rollup.sum == want.sum;
      sheet.check(ok, "engine range of " + metrics[m] + " rank " +
                          std::to_string(r.rank) + " window " +
                          std::to_string(win) + " differs from the reference");
    }
    engine.seal();
  }

  const double failFrac = static_cast<double>(failures) /
                          static_cast<double>(std::max<std::uint64_t>(1, enqueued));
  // Disk bytes per durable sample, read before retention deleted any
  // segment (the engine's default bounds cap the directory).
  const double bytesPerSample = pass.diskBytes / std::max(1.0, pass.diskSamples);
  const double segmentBytesPerSample =
      pass.segmentBytes / std::max(1.0, pass.segmentSamples);
  if (!options.trace) {
    sheet.e2e("setup_s", setup, "s");
    sheet.e2e("rss_mb", peakRssMiB(), "MiB");
    sheet.note("op_p50_ms", pass.op.sliced(0.5), "ms");
    sheet.note("op_p99_ms", pass.op.sliced(0.99), "ms");
    sheet.e2e("fresh_p50_ms", pass.fresh.sliced(0.5), "ms");
    sheet.note("fresh_p99_ms", pass.fresh.sliced(0.99), "ms");
    sheet.note("rate_per_s", pass.rate, "1/s");
    sheet.note("ingest_p50_ms (durable ack)", pass.ack.sliced(0.5), "ms");
    sheet.note("ingest_p99_ms (durable ack)", pass.ack.sliced(0.99), "ms");
    sheet.note("ingest_rps", pass.rate, "records/s");
    sheet.note("bytes_per_sample", bytesPerSample, "B");
    sheet.note("fail_frac", failFrac, "ratio");
    sheet.note("records per period", static_cast<double>(frontierRankMetrics().size()), "count");
    sheet.note("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
    sheet.note("segments dropped by retention", static_cast<double>(segmentsDropped), "count");
    return;
  }
  const auto byName = Tracer::byName();
  auto mean = [&](const char* name) {
    const auto it = byName.find(name);
    return it == byName.end() || it->second.spans == 0
               ? 0.0
               : it->second.totalSeconds / static_cast<double>(it->second.spans);
  };
  const auto wc = sut->writer->counters();
  const auto& dc = sut->daemon->counters();
  const auto ec = engineCounters();
  const double polls = static_cast<double>(std::max<std::uint64_t>(1, pass.polls));
  sheet.layer("aggregator.client.enqueue_us", mean("aggregator.client:enqueueIds") * 1e6, "us");
  sheet.layer("aggregator.client.pump_us", mean("aggregator.client:pump") * 1e6, "us");
  sheet.layer("aggregator.client.records_per_batch",
              static_cast<double>(sent - sentBefore) /
                  static_cast<double>(std::max<std::uint64_t>(1, batches - batchesBefore)),
              "count");
  sheet.layer("aggregator.client.queue_depth",
              pass.queueDepthSum / static_cast<double>(std::max<std::uint64_t>(1, pass.pumps)),
              "count");
  sheet.layer("aggregator.client.coarsened_frac",
              static_cast<double>(coarsened - coarsenedBefore) /
                  static_cast<double>(std::max<std::uint64_t>(1, enqueued - enqueuedBefore)),
              "ratio");
  sheet.layer("aggregator.daemon.poll_us", mean("aggregator.daemon:poll") * 1e6, "us");
  sheet.layer("aggregator.daemon.busy_frac", pass.pollSeconds / std::max(1e-9, pass.loopSeconds), "ratio");
  sheet.layer("aggregator.daemon.backlog", pass.backlogSum / polls, "count");
  sheet.layer("aggregator.daemon.pressure_frac", static_cast<double>(pass.pressured) / polls, "ratio");
  sheet.layer("aggregator.daemon.writer_bypasses",
              static_cast<double>(dc.writerBypasses - daemonBefore.writerBypasses), "count");
  sheet.layer("aggregator.writer.pending", pass.writerPendingSum / polls, "count");
  sheet.layer("aggregator.writer.group_commits",
              static_cast<double>(wc.groupCommits - writerBefore.groupCommits), "count");
  sheet.layer("aggregator.writer.submit_rejected",
              static_cast<double>(wc.submitRejected - writerBefore.submitRejected), "count");
  sheet.layer("tsdb.compactions", static_cast<double>(ec.compactions - engineBefore.compactions), "count");
  sheet.layer("tsdb.segment_bytes_per_sample", segmentBytesPerSample, "B");
  sheet.layer("bytes_per_sample", bytesPerSample, "B");
  sheet.layer("stage.enqueue_to_send_ms", stageSend.stats().quantile(0.5) * 1e3, "ms");
  sheet.layer("stage.send_to_ingest_ms", stageIngest.stats().quantile(0.5) * 1e3, "ms");
  sheet.layer("stage.ingest_to_durable_ms", stageDurable.stats().quantile(0.5) * 1e3, "ms");
  sheet.layer("fresh_p99_ms", pass.fresh.sliced(0.99), "ms");
  sheet.layer("op_p50_ms", pass.op.slices(start, false).sliced(0.5), "ms");
  sheet.layer("op_p99_ms", pass.op.slices(start, false).sliced(0.99), "ms");
  sheet.layer("rate_per_s", pass.rate, "1/s");
  sheet.layer("aggregator.client.ack_p50_ms", pass.ack.sliced(0.5), "ms");
  sheet.layer("aggregator.client.ack_p99_ms", pass.ack.sliced(0.99), "ms");
  sheet.layer("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
  sheet.layer("fail_frac", failFrac, "ratio");
  const double off50 = pass.fresh.slices(start, false).overall(0.5);
  const double on50 = pass.fresh.slices(start, true).overall(0.5);
  sheet.layer("trace.overhead_pct",
              off50 > 0.0 ? (on50 - off50) / off50 * 100.0 : 0.0, "%");
  sheet.layer("trace.spans", static_cast<double>(Tracer::spanCount()), "count");
  const auto byLayer = Tracer::byLayer();
  for (const char* layer : {"aggregator.client", "aggregator.daemon"}) {
    const auto it = byLayer.find(layer);
    sheet.layer(std::string("self.") + layer + "_ms",
                it == byLayer.end() ? 0.0 : it->second.selfSeconds * 1e3, "ms");
  }
}

}  // namespace zsb
