// dashboard: reads beside writes.  Setup recovers a generated tsdb data
// directory holding more history than the RollupStore keeps in memory
// (16 ranks x 24 Frontier metrics, 2 h at one sample per 10 s) into a
// daemon with the engine attached (`zerosum-aggd --data-dir`), a
// QueryService and the HTTP plane.  One client trickles the live rank's
// metrics plus a marker series; three keep-alive HTTP readers send the
// query mix, first open loop at kQueryRate, then closed loop.
//
// The mix: Zipf-skewed live window/snapshot/series queries (a working
// set that fits the result cache and the downsample ladders), live range
// queries whose distinct keys exceed the cache, a share of bulk exports
// over the history (the engine's segment read path: the query service
// answers `range` from its store snapshot and only `export` from the
// engine), and marker snapshots for freshness.
//
// Threads: the daemon loop (main), the trickle and the readers; four TCP
// connections.  op = query latency from its due time, fresh = marker
// creation -> first answer showing it, rate = closed-loop 200s per second.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/http.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/tcp.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "harness.hpp"
#include "httpclient.hpp"
#include "shapes.hpp"
#include "tsdb/engine.hpp"

namespace zsb {

using namespace zerosum;

namespace {

constexpr int kHistRanks = 16;
constexpr std::size_t kMetrics = 24;
constexpr double kHistStep = 10.0;        // data seconds between samples
constexpr int kHistSteps = 720;           // 2 h of history
constexpr double kHistEnd = 1.0 + kHistStep * kHistSteps;
constexpr double kTrickleHz = 64.0;       // live periods per second
constexpr double kQueryRate = 500.0;      // open-loop queries per second
constexpr int kReaders = 3;
constexpr int kLiveRank = 1000;           // sampleValue rank of the trickle
const char* const kMarker = "bench.marker";

enum Kind { kWindow, kSnapshot, kSeries, kRange, kExport, kMarkerQ, kKinds };
const char* const kKindNames[kKinds] = {"window", "snapshot", "series",
                                        "range", "export", "marker"};
const char* const kSpanNames[kKinds] = {"query:window", "query:snapshot",
                                        "query:series", "query:range",
                                        "query:export", "query:marker"};

struct Query {
  std::string target;
  Kind kind = kWindow;
  // export reference
  int rank = 0;
  std::size_t metric = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// The generated inputs: history directory and query list.
struct Inputs {
  std::string pristine;  ///< generated history dir (never opened by the SUT)
  std::vector<Query> queries;
  std::vector<std::string> targets;  ///< queries[i].target
};

void writeHistory(const std::string& dir, std::uint64_t seed,
                  const std::vector<std::string>& metrics) {
  std::filesystem::remove_all(dir);
  tsdb::EngineOptions eo;
  eo.fsync = tsdb::FsyncPolicy::kOff;  // file contents do not depend on it
  tsdb::Engine engine(dir, eo);
  std::vector<tsdb::Sample> batch(kMetrics);
  for (int step = 0; step < kHistSteps; ++step) {
    const double t = 1.0 + kHistStep * step;
    for (int r = 0; r < kHistRanks; ++r) {
      for (std::size_t m = 0; m < kMetrics; ++m) {
        batch[m] = {t, metrics[m],
                    sampleValue(seed, r, m, static_cast<std::uint64_t>(step))};
      }
      engine.append("hist", r, batch);
      engine.maybeCompact();
    }
  }
  for (int r = 0; r < kHistRanks; ++r) {
    tsdb::SourceRecord src;
    src.job = "hist";
    src.rank = r;
    src.worldSize = kHistRanks;
    src.hostname = "frontier" + std::to_string(r / 8);
    src.pid = 2000 + r;
    src.firstSeenSeconds = 1.0;
    src.lastSeenSeconds = kHistEnd;
    engine.noteSource(src);
  }
  engine.seal();
}

Inputs makeInputs(const Options& options,
                  const std::vector<std::string>& metrics) {
  Inputs in;
  in.pristine = options.workdir + "/dashboard.history";
  writeHistory(in.pristine, options.seed, metrics);

  Rng rng(options.seed ^ 0xda5bULL);
  // Live working set: Zipf over (kind, metric, window) keys.
  std::vector<Query> live;
  for (std::size_t m = 0; m < kMetrics; ++m) {
    for (int w : {60, 600}) {
      live.push_back({"/api/query?op=window&metric=" + urlEncode(metrics[m]) +
                          "&window_s=" + std::to_string(w),
                      kWindow});
    }
    live.push_back({"/api/query?op=snapshot&job=live&rank=0&metric=" +
                        urlEncode(metrics[m]),
                    kSnapshot});
  }
  live.push_back({"/api/query?op=series", kSeries});
  live.push_back({"/api/query?op=snapshot&job=live&rank=0", kSnapshot});
  // Shuffle so the Zipf head mixes kinds.
  for (std::size_t i = live.size(); i > 1; --i) {
    std::swap(live[i - 1], live[rng.below(i)]);
  }
  const Zipf zipf(live.size(), 1.1);
  const std::size_t n = static_cast<std::size_t>(kQueryRate * options.seconds) + 64;
  const double liveSpan = options.seconds * 1.2 + 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    Query q;
    if (u < 0.55) {
      q = live[zipf.draw(rng)];
    } else if (u < 0.80) {
      // Live range: distinct (metric, t0) keys, far more than the cache.
      const std::size_t m = rng.below(kMetrics);
      const double t0 = kHistEnd + std::floor(rng.uniform() * liveSpan);
      q.target = "/api/query?op=range&job=live&rank=0&metric=" +
                 urlEncode(metrics[m]) +
                 "&t0=" + std::to_string(static_cast<long>(t0)) +
                 "&t1=" + std::to_string(static_cast<long>(t0 + 30.0));
      q.kind = kRange;
    } else if (u < 0.90) {
      // Bulk export of one history series over ten minutes.
      q.kind = kExport;
      q.rank = static_cast<int>(rng.below(kHistRanks));
      q.metric = rng.below(kMetrics);
      q.t0 = 1.0 + kHistStep * static_cast<double>(rng.below(kHistSteps - 60));
      q.t1 = q.t0 + 600.0;
      q.target = "/api/query?op=export&job=hist&rank=" +
                 std::to_string(q.rank) + "&metric=" + urlEncode(metrics[q.metric]) +
                 "&t0=" + std::to_string(static_cast<long>(q.t0)) +
                 "&t1=" + std::to_string(static_cast<long>(q.t1));
    } else {
      q.target = std::string("/api/query?op=snapshot&job=live&rank=0&metric=") +
                 kMarker;
      q.kind = kMarkerQ;
    }
    in.queries.push_back(q);
  }
  for (const Query& q : in.queries) {
    in.targets.push_back(q.target);
  }
  return in;
}

struct DashboardSut {
  double recoverSeconds = 0.0;
  std::size_t segments = 0;
  std::unique_ptr<tsdb::Engine> engine;
  std::unique_ptr<aggregator::Aggregator> daemon;
  std::unique_ptr<aggregator::QueryService> query;
  std::unique_ptr<aggregator::HttpServer> http;
  std::unique_ptr<aggregator::Client> trickle;
  std::unique_ptr<HttpReaders> readers;
  int httpPort = 0;

  explicit DashboardSut(const std::string& dir) {
    const double r0 = nowSeconds();
    engine = std::make_unique<tsdb::Engine>(dir);
    recoverSeconds = nowSeconds() - r0;
    segments = engine->segmentCount();
    auto wire = std::make_unique<aggregator::TcpServer>(0);
    const int wirePort = wire->port();
    daemon = std::make_unique<aggregator::Aggregator>(std::move(wire));
    daemon->attachEngine(engine.get());
    query = std::make_unique<aggregator::QueryService>(*daemon);
    daemon->attachQueryService(query.get());
    auto listener = std::make_unique<aggregator::TcpServer>(0);
    httpPort = listener->port();
    http = std::make_unique<aggregator::HttpServer>(std::move(listener));
    aggregator::mountDaemonEndpoints(*http, *daemon, [] { return nowSeconds(); },
                                     {{"job", "dashboard"}, {"role", "daemon"}},
                                     query.get());
    aggregator::Hello hello;
    hello.job = "live";
    hello.rank = 0;
    hello.worldSize = 1;
    hello.hostname = "frontier-live";
    hello.pid = 3000;
    trickle = std::make_unique<aggregator::Client>(
        std::make_unique<aggregator::TcpTransport>("127.0.0.1", wirePort, 250),
        hello);
    readers = std::make_unique<HttpReaders>(httpPort, kReaders);
  }

  ~DashboardSut() {
    readers.reset();
    trickle.reset();
    http.reset();
    daemon.reset();
    query.reset();
    engine.reset();
  }

  /// One iteration of the daemon's event loop; true when it did work.
  bool loopOnce(double& pollSeconds, double& httpSeconds) {
    const auto before = daemon->counters().framesIngested;
    const double now = nowSeconds();
    {
      Scope s("aggregator.daemon:poll", Tracer::newOp());
      daemon->poll(now);
    }
    pollSeconds += nowSeconds() - now;
    const bool served = serveQueries(*query, *http, httpSeconds);
    return daemon->counters().framesIngested != before || served;
  }
};

/// Live trickle: kTrickleHz periods of the live metrics plus the marker.
struct Trickle {
  std::vector<std::vector<aggregator::IdRecord>> periods;
  names::Id marker = names::kInvalidId;
  std::uint64_t next = 0;  ///< periods sent (= the next marker value)
};

double liveTime(std::uint64_t period) {
  return kHistEnd + static_cast<double>(period) / kTrickleHz;
}

void trickleOnce(Trickle& tr, aggregator::Client& client) {
  auto& batch = tr.periods[tr.next % kPool];
  const double t = liveTime(tr.next);
  for (auto& rec : batch) {
    rec.timeSeconds = t;
  }
  batch.back() = {t, tr.marker, static_cast<double>(tr.next)};
  client.enqueueIds(batch, nowSeconds());
  ++tr.next;
}

struct Pass {
  explicit Pass(MarkerFreshness marker) : replies(kKinds, marker) {}
  ReplyTally replies;
  std::vector<double> late;
  double qps = 0.0;
  double pollSeconds = 0.0;
  double httpSeconds = 0.0;
  double loopSeconds = 0.0;
  /// Query-service counters when the open loop ended: the cache and
  /// ladder figures are taken at the fixed query rate.
  aggregator::QueryServiceCounters openEnd;
};

Pass measure(DashboardSut& sut, Trickle& tr, const Inputs& in, double start,
             double seconds, bool traced) {
  Pass pass(MarkerFreshness(start, kTrickleHz, tr.next));
  std::atomic<bool> done{false};
  const double openUntil = start + 0.6 * seconds;
  const double until = start + seconds;

  // Trickle thread: fixed low rate for the whole pass.
  std::thread trickleThread([&] {
    pinThread(1);
    std::uint64_t k = 0;
    while (!done.load()) {
      const double due = start + static_cast<double>(k) / kTrickleHz;
      if (due >= until) {
        break;
      }
      sleepUntil(due);
      trickleOnce(tr, *sut.trickle);
      ++k;
      sut.trickle->pump(nowSeconds());
    }
  });

  // Reader thread: open loop, then closed loop.
  std::thread readerThread([&] {
    pinThread(2);
    auto onReply = [&](const Reply& r, bool open) {
      const Kind kind = in.queries[r.query].kind;
      pass.replies.onReply(r, open, kind, kSpanNames[kind], kind == kMarkerQ,
                           kind == kExport);
    };
    sut.readers->openLoop(in.targets, kQueryRate, start, openUntil,
                          [&](const Reply& r) { onReply(r, true); });
    const double closedStart = nowSeconds();
    sut.readers->closedLoop(in.targets, until,
                            [&](const Reply& r) { onReply(r, false); });
    pass.qps = pass.replies.answered.sliced(closedStart, until);
    done.store(true);
  });

  pinThread(0);  // the daemon + HTTP loop
  const double loopStart = nowSeconds();
  bool openEnded = false;
  while (!done.load()) {
    if (!openEnded && nowSeconds() >= openUntil) {
      pass.openEnd = sut.query->counters();
      openEnded = true;
    }
    if (traced) {
      Tracer::alternate(start);
    }
    if (!sut.loopOnce(pass.pollSeconds, pass.httpSeconds)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  pass.loopSeconds = nowSeconds() - loopStart;
  Tracer::setEnabled(false);
  readerThread.join();
  trickleThread.join();
  pass.late = sut.readers->lateness();
  return pass;
}

}  // namespace

void runDashboard(const Options& options, Sheet& sheet) {
  std::vector<std::string> metrics(frontierRankMetrics().begin(),
                                   frontierRankMetrics().begin() + kMetrics);

  // --- inputs: history directory and the query list ------------------------
  const Inputs in = makeInputs(options, metrics);
  Trickle tr;
  {
    std::vector<std::string> liveMetrics = metrics;
    liveMetrics.push_back(kMarker);
    tr.periods = buildPeriods(options.seed, kLiveRank, liveMetrics);
    tr.marker = names::intern(kMarker);
  }

  // rss_mb covers the system under test, not the input generation.
  resetPeakRss();

  // --- setup: recover + daemon + query plane + connections, median -------
  // Each setup starts from a fresh copy of the generated directory (the
  // copy is not timed) and ends with the trickle's first period acked.
  std::unique_ptr<DashboardSut> sut;
  const std::string dir = options.workdir + "/dashboard.tsdb";
  const double setup = medianSetup(
      [&] {
        sut.reset();
        std::filesystem::remove_all(dir);
        std::filesystem::copy(in.pristine, dir);
        tr.next = 0;
      },
      [&] {
        sut = std::make_unique<DashboardSut>(dir);
        // Warm-up: enough periods for one full client batch, acked.
        const std::size_t perBatch = aggregator::ClientOptions{}.batchRecords;
        while (tr.next * tr.periods[0].size() < perBatch) {
          trickleOnce(tr, *sut->trickle);
        }
        double a = 0.0, b = 0.0;
        const double deadline = nowSeconds() + 10.0;
        while (sut->trickle->counters().recordsAcked == 0) {
          sut->loopOnce(a, b);
          sut->trickle->pump(nowSeconds());
          if (nowSeconds() > deadline) {
            throw std::runtime_error("dashboard warm-up was never acked");
          }
        }
      });

  const auto qcBefore = sut->query->counters();
  const double start = nowSeconds() + 0.01;
  Pass pass = measure(*sut, tr, in, start, options.seconds, options.trace);

  // --- drain the trickle and check ------------------------------------------
  const double drainDeadline = nowSeconds() + 5.0;
  double a = 0.0, b = 0.0;
  while (nowSeconds() < drainDeadline) {
    sut->trickle->pump(nowSeconds());  // the last batch flushes by age
    sut->loopOnce(a, b);
    const auto& c = sut->trickle->counters();
    if (c.recordsAcked == c.recordsEnqueued) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto& tc = sut->trickle->counters();
  sheet.check(tc.recordsDropped == 0 && tc.recordsCoarsened == 0 &&
                  tc.recordsAcked == tc.recordsEnqueued,
              "trickle records dropped, coarsened or never acked");
  sheet.attempted(pass.replies.attempted);
  sheet.failed(pass.replies.failed);
  sheet.check(pass.replies.wrong == 0, std::to_string(pass.replies.wrong) + " of " +
                                   std::to_string(pass.replies.attempted) +
                                   " queries answered with an error status");

  // Every kept body parses; every export equals the history reference.
  std::size_t exportsChecked = 0;
  for (const Reply& r : pass.replies.kept) {
    if (r.status != 200) {
      continue;
    }
    json::Value v;
    try {
      v = json::parse(r.body);
    } catch (const std::exception& e) {
      sheet.check(false, std::string("reply is not JSON: ") + e.what());
      continue;
    }
    const Query& q = in.queries[r.query];
    if (q.kind != kExport) {
      continue;
    }
    ++exportsChecked;
    const auto& series = v.find("series")->asArray();
    bool ok = series.size() == 1;
    if (ok) {
      const auto& rows = series[0].find("windows")->asArray();
      std::size_t row = 0;
      for (int step = 0; step < kHistSteps && ok; ++step) {
        const double t = 1.0 + kHistStep * step;
        // Fine windows are 1 s wide: one sample each.
        if (t + 1.0 <= q.t0 || t > q.t1) {
          continue;
        }
        const double want = sampleValue(options.seed, q.rank, q.metric,
                                        static_cast<std::uint64_t>(step));
        ok = row < rows.size() && rows[row].numberOr("t", -1.0) == t &&
             rows[row].numberOr("count", 0.0) == 1.0 &&
             rows[row].numberOr("min", -1.0) == want &&
             rows[row].numberOr("max", -1.0) == want &&
             rows[row].numberOr("avg", -1.0) == want;
        ++row;
      }
      ok = ok && row == rows.size();
    }
    sheet.check(ok, "export answer differs from the history reference: " +
                        q.target);
  }
  sheet.check(exportsChecked > 0, "no export answer was checked");

  // Live data after quiescence: the query service's range answers equal
  // the trickle's reference windows.
  {
    const double settle = nowSeconds() + 0.3;  // past the snapshot interval
    while (nowSeconds() < settle) {
      sut->loopOnce(a, b);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::string> liveMetrics = metrics;
    liveMetrics.push_back(kMarker);
    Rng pick(options.seed ^ 0x11feULL);
    const auto windows = static_cast<std::uint64_t>(
        std::floor(liveTime(tr.next - 1))) - static_cast<std::uint64_t>(kHistEnd);
    for (int check = 0; check < 6; ++check) {
      const std::size_t m = pick.below(kMetrics);
      const double w0 = kHistEnd + static_cast<double>(pick.below(std::max<std::uint64_t>(1, windows)));
      aggregator::Rollup want;
      for (std::uint64_t k = 0; k < tr.next; ++k) {
        if (std::floor(liveTime(k)) == w0) {
          want.merge(sampleValue(options.seed, kLiveRank, m, k));
        }
      }
      const auto res = sut->query->executeParams(
          "range",
          {{"job", "live"}, {"rank", "0"}, {"metric", liveMetrics[m]},
           {"t0", std::to_string(w0 + 0.25)}, {"t1", std::to_string(w0 + 0.75)}},
          aggregator::QueryClass::kLive, nowSeconds());
      bool ok = res.status == 200;
      if (ok) {
        const auto rows = json::parse(res.body).find("windows")->asArray();
        ok = rows.size() == 1 &&
             rows[0].numberOr("count", 0.0) == static_cast<double>(want.count) &&
             rows[0].numberOr("min", -1.0) == want.min &&
             rows[0].numberOr("max", -1.0) == want.max &&
             rows[0].numberOr("avg", -1.0) == want.avg();
      }
      sheet.check(ok, "live range of " + liveMetrics[m] + " at " +
                          std::to_string(w0) + " differs from the trickle reference");
    }
  }

  const double failFrac = static_cast<double>(pass.replies.failed) /
                          static_cast<double>(std::max<std::uint64_t>(1, pass.replies.attempted));
  if (!options.trace) {
    sheet.e2e("setup_s", setup, "s");
    sheet.e2e("rss_mb", peakRssMiB(), "MiB");
    sheet.note("op_p50_ms", pass.replies.all.sliced(0.5), "ms");
    sheet.note("op_p99_ms", pass.replies.all.sliced(0.99), "ms");
    sheet.e2e("fresh_p50_ms", pass.replies.fresh.sliced(0.5), "ms");
    sheet.note("fresh_p99_ms", pass.replies.fresh.sliced(0.99), "ms");
    sheet.note("rate_per_s", pass.qps, "1/s");
    sheet.note("query_p50_ms", pass.replies.all.sliced(0.5), "ms");
    sheet.note("query_p99_ms", pass.replies.all.sliced(0.99), "ms");
    sheet.note("query_qps", pass.qps, "queries/s");
    sheet.note("queries (open loop)", static_cast<double>(pass.replies.all.size()), "count");
    sheet.note("fail_frac", failFrac, "ratio");
    sheet.note("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
    sheet.note("tsdb.recover_s", sut->recoverSeconds, "s");
    sheet.note("tsdb.segments", static_cast<double>(sut->segments), "count");
    return;
  }
  const auto qc = sut->query->counters();
  const auto byName = Tracer::byName();
  auto mean = [&](const char* name) {
    const auto it = byName.find(name);
    return it == byName.end() || it->second.spans == 0
               ? 0.0
               : it->second.totalSeconds / static_cast<double>(it->second.spans);
  };
  for (int k = 0; k < kKinds; ++k) {
    if (k == kMarkerQ) {
      continue;
    }
    sheet.layer(std::string("query.") + kKindNames[k] + "_ms",
                pass.replies.perKind[k].overall(0.5), "ms");
  }
  sheet.layer("query_qps", pass.qps, "1/s");
  sheet.layer("aggregator.http.poll_us", mean("aggregator.http:poll") * 1e6, "us");
  sheet.layer("aggregator.http.busy_frac",
              pass.httpSeconds / std::max(1e-9, pass.loopSeconds), "ratio");
  sheet.layer("aggregator.daemon.poll_us", mean("aggregator.daemon:poll") * 1e6, "us");
  sheet.layer("aggregator.daemon.busy_frac",
              pass.pollSeconds / std::max(1e-9, pass.loopSeconds), "ratio");
  const auto& qo = pass.openEnd;
  const double lookups = static_cast<double>((qo.cacheHits - qcBefore.cacheHits) +
                                             (qo.cacheMisses - qcBefore.cacheMisses));
  sheet.layer("aggregator.queryservice.cache_hit_ratio",
              static_cast<double>(qo.cacheHits - qcBefore.cacheHits) /
                  std::max(1.0, lookups),
              "ratio");
  sheet.layer("aggregator.queryservice.cache_bytes",
              static_cast<double>(sut->query->cacheBytes()), "B");
  sheet.layer("aggregator.queryservice.snapshot_refreshes",
              static_cast<double>(qc.snapshotRefreshes - qcBefore.snapshotRefreshes),
              "count");
  sheet.layer("aggregator.queryservice.shed",
              static_cast<double>((qc.shedLive - qcBefore.shedLive) +
                                  (qc.shedBulk - qcBefore.shedBulk)),
              "count");
  sheet.layer("aggregator.queryservice.ladder_fallbacks",
              static_cast<double>(qo.ladderFallbacks - qcBefore.ladderFallbacks),
              "count");
  sheet.layer("tsdb.recover_s", sut->recoverSeconds, "s");
  sheet.layer("tsdb.segments", static_cast<double>(sut->segments), "count");
  sheet.layer("fresh_p99_ms", pass.replies.fresh.sliced(0.99), "ms");
  sheet.layer("op_p50_ms", pass.replies.all.slices(start, false).sliced(0.5), "ms");
  sheet.layer("op_p99_ms", pass.replies.all.slices(start, false).sliced(0.99), "ms");
  sheet.layer("rate_per_s", pass.qps, "1/s");
  sheet.layer("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
  sheet.layer("fail_frac", failFrac, "ratio");
  const double off50 = pass.replies.all.slices(start, false).overall(0.5);
  const double on50 = pass.replies.all.slices(start, true).overall(0.5);
  sheet.layer("trace.overhead_pct",
              off50 > 0.0 ? (on50 - off50) / off50 * 100.0 : 0.0, "%");
  sheet.layer("trace.spans", static_cast<double>(Tracer::spanCount()), "count");
  const auto byLayer = Tracer::byLayer();
  for (const char* layer : {"aggregator.daemon", "aggregator.http", "query"}) {
    const auto it = byLayer.find(layer);
    sheet.layer(std::string("self.") + layer + "_ms",
                it == byLayer.end() ? 0.0 : it->second.selfSeconds * 1e3, "ms");
  }
}

}  // namespace zsb
