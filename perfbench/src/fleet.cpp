// fleet: federated fan-in.  An in-process FederationTree (2 groups x 2
// node daemons over PipeHubs, node -> group -> root) carries kRanks rank
// clients publishing Frontier-shaped periods; a QueryService and the
// HTTP plane are mounted on the root, where three keep-alive readers send
// the query mix and watch rank 0's marker series arrive.  Forwarded
// windows bypass the root's ladder hook, so its window queries take the
// snapshot fallback path.
//
// Threads: the tree and HTTP loop (main), the rank clients and the
// readers; three TCP connections (the tree runs over in-memory pipes).
// Open loop: ranks at kRankHz, queries at kQueryRate; op = root query
// latency from its due time, fresh = marker due -> first root answer
// showing it.  Closed loop: ranks with bounded unacked records and
// readers one query per connection; rate = records per second visible at
// the root (closed phase until the tree quiesces).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/federation.hpp"
#include "aggregator/http.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/tcp.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "harness.hpp"
#include "httpclient.hpp"
#include "shapes.hpp"

namespace zsb {

using namespace zerosum;

namespace {

constexpr int kGroups = 2;
constexpr int kNodesPerGroup = 2;
constexpr int kRanks = 32;               // "dozens of rank clients"
constexpr double kRankHz = 16.0;         // open-loop periods per rank
constexpr double kDataStep = 1.0 / 16.0; // data seconds per period
constexpr double kQueryRate = 200.0;
constexpr std::uint64_t kInflight = 2048;  // closed loop, per rank
/// Closed-loop periods per rank: a fixed count, so every run leaves the
/// same data in the tree (the stores' footprint grows with it).
constexpr std::uint64_t kClosedPeriods = 600;
constexpr int kReaders = 3;
const char* const kMarker = "bench.marker";

enum Kind { kWindow, kSnapshot, kSeries, kRange, kMarkerQ, kKinds };
const char* const kKindNames[kKinds] = {"window", "snapshot", "series",
                                        "range", "marker"};
const char* const kSpanNames[kKinds] = {"query:window", "query:snapshot",
                                        "query:series", "query:range",
                                        "query:marker"};

double dataTime(std::uint64_t period) {
  return 1.0 + static_cast<double>(period) * kDataStep;
}

struct RankClient {
  int rank = 0;
  std::unique_ptr<aggregator::Client> client;
  std::vector<std::vector<aggregator::IdRecord>> periods;
  std::uint64_t next = 0;
};

struct FleetSut {
  std::unique_ptr<aggregator::FederationTree> tree;
  std::unique_ptr<aggregator::QueryService> query;
  std::unique_ptr<aggregator::HttpServer> http;
  std::vector<RankClient> ranks;
  std::unique_ptr<HttpReaders> readers;

  FleetSut(const std::vector<std::vector<std::vector<aggregator::IdRecord>>>&
               inputs) {
    aggregator::FederationTreeOptions to;
    to.groups = kGroups;
    to.nodesPerGroup = kNodesPerGroup;
    tree = std::make_unique<aggregator::FederationTree>(to);
    query = std::make_unique<aggregator::QueryService>(tree->root());
    tree->root().attachQueryService(query.get());
    auto listener = std::make_unique<aggregator::TcpServer>(0);
    const int port = listener->port();
    http = std::make_unique<aggregator::HttpServer>(std::move(listener));
    aggregator::mountDaemonEndpoints(*http, tree->root(),
                                     [] { return nowSeconds(); },
                                     {{"job", "fleet"}, {"role", "root"}},
                                     query.get());
    for (int r = 0; r < kRanks; ++r) {
      const int node = r % (kGroups * kNodesPerGroup);
      aggregator::Hello hello;
      hello.job = "fleet";
      hello.rank = r;
      hello.worldSize = kRanks;
      hello.hostname = "frontier" + std::to_string(node);
      hello.pid = 4000 + r;
      RankClient rc;
      rc.rank = r;
      rc.client = std::make_unique<aggregator::Client>(
          tree->makeNodeTransport(node / kNodesPerGroup, node % kNodesPerGroup),
          hello);
      rc.periods = inputs[static_cast<std::size_t>(r)];
      ranks.push_back(std::move(rc));
    }
    readers = std::make_unique<HttpReaders>(port, kReaders);
    // Warm-up: one full client batch per rank, acked and forwarded all
    // the way to the root.
    const std::size_t perBatch = aggregator::ClientOptions{}.batchRecords;
    for (RankClient& rc : ranks) {
      while (rc.client->counters().recordsEnqueued < perBatch) {
        send(rc);
      }
    }
    if (!drain(nowSeconds() + 20.0, false)) {
      throw std::runtime_error("fleet warm-up never reached the root");
    }
  }

  ~FleetSut() {
    readers.reset();
    ranks.clear();
    http.reset();
    tree.reset();
    query.reset();
  }

  static void send(RankClient& rc) {
    auto& batch = rc.periods[rc.next % kPool];
    const double t = dataTime(rc.next);
    for (auto& rec : batch) {
      rec.timeSeconds = t;
    }
    if (rc.rank == 0) {
      batch.back().value = static_cast<double>(rc.next);  // the marker
    }
    rc.client->enqueueIds(batch, nowSeconds());
    ++rc.next;
  }

  /// One iteration of the tree + HTTP loop; true when it did work.
  bool loopOnce(double& stepSeconds, double& httpSeconds) {
    const auto framesBefore = tree->root().counters().framesIngested;
    const double now = nowSeconds();
    {
      Scope s("aggregator.federation:step", Tracer::newOp());
      tree->step(now);
    }
    stepSeconds += nowSeconds() - now;
    const bool served = serveQueries(*query, *http, httpSeconds);
    return tree->root().counters().framesIngested != framesBefore || served;
  }

  /// Steps the tree until every client has an ack (`all`: for every
  /// record it sent, partial batches flushing by age) and the forwarders
  /// have quiesced.  Single-threaded use only.
  bool drain(double deadline, bool all) {
    double a = 0.0, b = 0.0;
    while (nowSeconds() < deadline) {
      bool acked = true;
      for (RankClient& rc : ranks) {
        rc.client->pump(nowSeconds());
        const auto& c = rc.client->counters();
        acked = acked && (all ? c.recordsAcked == c.recordsEnqueued
                              : c.recordsAcked > 0);
      }
      loopOnce(a, b);
      if (acked && tree->quiesced()) {
        return true;
      }
      if (all) {
        // Waiting out the clients' batch-age timer: no need to spin.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return false;
  }
};

/// Records held at the root: the sum of its coarse-window counts.
std::uint64_t rootRecords(FleetSut& sut) {
  std::uint64_t n = 0;
  const aggregator::StoreSnapshot snap = sut.tree->root().store().snapshot();
  for (const auto& series : snap.series()) {
    for (const auto& [index, rollup] : series.coarse) {
      n += rollup.count;
    }
  }
  return n;
}

struct Query {
  std::string target;
  Kind kind = kWindow;
};

struct Pass {
  explicit Pass(MarkerFreshness marker) : replies(kKinds, marker) {}
  ReplyTally replies;
  std::vector<double> late;
  double qps = 0.0;
  double rate = 0.0;
  double stepSeconds = 0.0;
  double httpSeconds = 0.0;
  double loopSeconds = 0.0;
  /// Query-service counters when the open loop ended: the cache and
  /// ladder figures are taken at the fixed query rate.
  aggregator::QueryServiceCounters openEnd;
};

Pass measure(FleetSut& sut, const std::vector<Query>& queries,
             const std::vector<std::string>& targets, double start,
             double seconds, bool traced) {
  Pass pass(MarkerFreshness(start, kRankHz, sut.ranks[0].next));
  std::atomic<int> running{2};
  const double openUntil = start + 0.6 * seconds;
  const double until = start + seconds;
  std::atomic<bool> closedPhase{false};
  std::atomic<bool> ranksDone{false};

  std::thread rankThread([&] {
    pinThread(1);
    std::vector<std::uint64_t> sent(sut.ranks.size(), 0);
    auto dueOf = [&](std::size_t i) {
      return start + (static_cast<double>(i) / kRanks +
                      static_cast<double>(sent[i])) /
                         kRankHz;
    };
    while (nowSeconds() < openUntil) {
      double next = openUntil;
      for (std::size_t i = 0; i < sut.ranks.size(); ++i) {
        while (dueOf(i) <= nowSeconds() && dueOf(i) < openUntil) {
          FleetSut::send(sut.ranks[i]);
          ++sent[i];
        }
        next = std::min(next, dueOf(i));
      }
      for (RankClient& rc : sut.ranks) {
        rc.client->pump(nowSeconds());
      }
      sleepUntil(std::min(next, nowSeconds() + 0.001));
    }
    closedPhase.store(true);
    const std::size_t records = sut.ranks[0].periods[0].size();
    std::vector<std::uint64_t> quota(sut.ranks.size(), kClosedPeriods);
    bool left = true;
    while (left && nowSeconds() < until + 10.0) {  // a stall cannot hang
      left = false;
      bool sentAny = false;
      for (std::size_t i = 0; i < sut.ranks.size(); ++i) {
        RankClient& rc = sut.ranks[i];
        const auto& c = rc.client->counters();
        if (quota[i] > 0 &&
            c.recordsEnqueued - c.recordsAcked + records <= kInflight) {
          FleetSut::send(rc);
          --quota[i];
          sentAny = true;
        }
        left = left || quota[i] > 0;
        rc.client->pump(nowSeconds());
      }
      if (!sentAny) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    ranksDone.store(true);
    running.fetch_sub(1);
  });

  std::thread readerThread([&] {
    pinThread(2);
    auto onReply = [&](const Reply& r, bool open) {
      const Kind kind = queries[r.query].kind;
      pass.replies.onReply(r, open, kind, kSpanNames[kind], kind == kMarkerQ,
                           false);
    };
    sut.readers->openLoop(targets, kQueryRate, start, openUntil,
                          [&](const Reply& r) { onReply(r, true); });
    const double qStart = nowSeconds();
    sut.readers->closedLoop(targets, until,
                            [&](const Reply& r) { onReply(r, false); },
                            &ranksDone);
    pass.qps = pass.replies.answered.sliced(qStart, nowSeconds());
    running.fetch_sub(1);
  });

  // The rate counts records that became visible at the root while the
  // ranks sent their closed-loop quota: the root's coarse-window counts,
  // read when the phase starts and when the last rank is done.
  pinThread(0);  // the tree + HTTP loop
  const double loopStart = nowSeconds();
  double closedStart = 0.0;
  double closedEnd = 0.0;
  std::uint64_t visibleAtStart = 0;
  std::uint64_t visibleAtEnd = 0;
  bool openEnded = false;
  while (running.load() > 0) {
    if (!openEnded && nowSeconds() >= openUntil) {
      pass.openEnd = sut.query->counters();
      openEnded = true;
    }
    if (traced) {
      Tracer::alternate(start);
    }
    if (closedStart == 0.0 && closedPhase.load()) {
      closedStart = nowSeconds();
      visibleAtStart = rootRecords(sut);
    }
    if (closedEnd == 0.0 && ranksDone.load()) {
      closedEnd = nowSeconds();
      visibleAtEnd = rootRecords(sut);
    }
    if (!sut.loopOnce(pass.stepSeconds, pass.httpSeconds)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  pass.rate = static_cast<double>(visibleAtEnd - visibleAtStart) /
              std::max(1e-9, closedEnd - closedStart);
  pass.loopSeconds = nowSeconds() - loopStart;
  Tracer::setEnabled(false);
  rankThread.join();
  readerThread.join();
  pass.late = sut.readers->lateness();
  return pass;
}

}  // namespace

void runFleet(const Options& options, Sheet& sheet) {
  // --- inputs ----------------------------------------------------------------
  std::vector<std::string> metrics = frontierRankMetrics();
  std::vector<std::vector<std::vector<aggregator::IdRecord>>> inputs;
  for (int r = 0; r < kRanks; ++r) {
    std::vector<std::string> mine = metrics;
    if (r == 0) {
      mine.push_back(kMarker);
    }
    inputs.push_back(buildPeriods(options.seed, r, mine));
  }
  Rng rng(options.seed ^ 0xf1ee7ULL);
  std::vector<Query> live;
  for (const std::string& m : metrics) {
    live.push_back({"/api/query?op=window&metric=" + urlEncode(m) + "&window_s=60",
                    kWindow});
  }
  for (std::size_t i = live.size(); i > 1; --i) {
    std::swap(live[i - 1], live[rng.below(i)]);
  }
  const Zipf zipf(live.size(), 1.1);
  std::vector<Query> queries;
  const std::size_t n = static_cast<std::size_t>(kQueryRate * options.seconds) + 64;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const std::string rank = std::to_string(rng.below(kRanks));
    const std::string metric = urlEncode(metrics[rng.below(metrics.size())]);
    if (u < 0.40) {
      queries.push_back(live[zipf.draw(rng)]);
    } else if (u < 0.65) {
      queries.push_back({"/api/query?op=snapshot&job=fleet&rank=" + rank +
                             "&metric=" + metric,
                         kSnapshot});
    } else if (u < 0.85) {
      const long t0 = 1 + static_cast<long>(rng.below(8));
      queries.push_back({"/api/query?op=range&job=fleet&rank=" + rank +
                             "&metric=" + metric + "&t0=" + std::to_string(t0) +
                             "&t1=" + std::to_string(t0 + 4),
                         kRange});
    } else if (u < 0.87) {
      queries.push_back({"/api/query?op=series", kSeries});
    } else {
      queries.push_back({std::string("/api/query?op=snapshot&job=fleet&rank=0&metric=") +
                             kMarker,
                         kMarkerQ});
    }
  }
  std::vector<std::string> targets;
  for (const Query& q : queries) {
    targets.push_back(q.target);
  }

  // rss_mb covers the system under test, not the input generation.
  resetPeakRss();

  // --- setup: tree + root query plane + clients + readers, median -------
  std::unique_ptr<FleetSut> sut;
  const double setup = medianSetup(
      [&] { sut.reset(); },
      [&] { sut = std::make_unique<FleetSut>(inputs); });

  const auto qcBefore = sut->query->counters();
  std::uint64_t windowsBefore = 0, framesBefore = 0;
  auto forwarded = [&](std::uint64_t& windows, std::uint64_t& frames) {
    windows = frames = 0;
    for (int g = 0; g < kGroups; ++g) {
      windows += sut->tree->groupForwarder(g).counters().windowsForwarded;
      frames += sut->tree->groupForwarder(g).counters().framesForwarded;
      for (int nd = 0; nd < kNodesPerGroup; ++nd) {
        windows += sut->tree->nodeForwarder(g, nd).counters().windowsForwarded;
        frames += sut->tree->nodeForwarder(g, nd).counters().framesForwarded;
      }
    }
  };
  forwarded(windowsBefore, framesBefore);
  const double start = nowSeconds() + 0.01;
  const Pass pass =
      measure(*sut, queries, targets, start, options.seconds, options.trace);

  // --- drain: every record acked and forwarded to the root, then check -------
  const bool drained = sut->drain(nowSeconds() + 20.0, true);
  sheet.check(drained, "the tree never quiesced after the run");
  std::uint64_t enqueued = 0, dropped = 0, coarsened = 0, acked = 0;
  for (RankClient& rc : sut->ranks) {
    const auto& c = rc.client->counters();
    enqueued += c.recordsEnqueued;
    dropped += c.recordsDropped;
    coarsened += c.recordsCoarsened;
    acked += c.recordsAcked;
  }
  sheet.check(dropped == 0 && coarsened == 0 && acked == enqueued,
              "rank records dropped, coarsened or never acked");
  const aggregator::StoreSnapshot snap = sut->tree->root().store().snapshot();
  std::uint64_t fineCount = 0, coarseCount = 0;
  for (const auto& series : snap.series()) {
    for (const auto& [w, r] : series.fine) {
      fineCount += r.count;
    }
    for (const auto& [w, r] : series.coarse) {
      coarseCount += r.count;
    }
  }
  const std::uint64_t missing =
      enqueued - std::min(enqueued, std::min(fineCount, coarseCount));
  sheet.check(fineCount == enqueued && coarseCount == enqueued,
              "root holds " + std::to_string(fineCount) + " fine / " +
                  std::to_string(coarseCount) + " coarse records of " +
                  std::to_string(enqueued) + " sent");
  sheet.attempted(pass.replies.attempted + enqueued);
  sheet.failed(pass.replies.failed + dropped + coarsened + missing);
  sheet.check(pass.replies.wrong == 0, std::to_string(pass.replies.wrong) +
                                   " root queries answered with an error status");
  for (const Reply& r : pass.replies.kept) {
    if (r.status == 200) {
      try {
        (void)json::parse(r.body);
      } catch (const std::exception& e) {
        sheet.check(false, std::string("reply is not JSON: ") + e.what());
      }
    }
  }
  // Root range answers equal the generator's reference windows.
  {
    Rng pick(options.seed ^ 0x7007ULL);
    for (int check = 0; check < 6; ++check) {
      const RankClient& rc = sut->ranks[pick.below(kRanks)];
      const std::size_t m = pick.below(metrics.size());
      const std::uint64_t windows =
          static_cast<std::uint64_t>(dataTime(rc.next - 1)) - 1;  // complete
      const double w0 = 1.0 + static_cast<double>(pick.below(std::max<std::uint64_t>(1, windows)));
      aggregator::Rollup want;
      for (std::uint64_t k = 0; k < rc.next; ++k) {
        if (std::floor(dataTime(k)) == w0) {
          want.merge(sampleValue(options.seed, rc.rank, m, k));
        }
      }
      const auto res = sut->query->executeParams(
          "range",
          {{"job", "fleet"}, {"rank", std::to_string(rc.rank)},
           {"metric", metrics[m]}, {"t0", std::to_string(w0 + 0.25)},
           {"t1", std::to_string(w0 + 0.75)}},
          aggregator::QueryClass::kLive, nowSeconds() + 1.0);
      bool ok = res.status == 200;
      if (ok) {
        const auto rows = json::parse(res.body).find("windows")->asArray();
        ok = rows.size() == 1 &&
             rows[0].numberOr("count", 0.0) == static_cast<double>(want.count) &&
             rows[0].numberOr("min", -1.0) == want.min &&
             rows[0].numberOr("max", -1.0) == want.max &&
             rows[0].numberOr("avg", -1.0) == want.avg();
      }
      sheet.check(ok, "root range of " + metrics[m] + " rank " +
                          std::to_string(rc.rank) + " differs from the reference");
    }
  }

  const double failFrac =
      static_cast<double>(pass.replies.failed + dropped + coarsened + missing) /
      static_cast<double>(std::max<std::uint64_t>(1, pass.replies.attempted + enqueued));
  if (!options.trace) {
    sheet.e2e("setup_s", setup, "s");
    sheet.e2e("rss_mb", peakRssMiB(), "MiB");
    sheet.note("op_p50_ms", pass.replies.all.sliced(0.5), "ms");
    sheet.note("op_p99_ms", pass.replies.all.sliced(0.99), "ms");
    sheet.e2e("fresh_p50_ms", pass.replies.fresh.sliced(0.5), "ms");
    sheet.note("fresh_p99_ms", pass.replies.fresh.sliced(0.99), "ms");
    sheet.note("rate_per_s", pass.rate, "1/s");
    sheet.note("query_p50_ms", pass.replies.all.sliced(0.5), "ms");
    sheet.note("query_p99_ms", pass.replies.all.sliced(0.99), "ms");
    sheet.note("ingest_rps", pass.rate, "records/s");
    sheet.note("query_qps", pass.qps, "queries/s");
    sheet.note("queries (open loop)", static_cast<double>(pass.replies.all.size()), "count");
    sheet.note("fail_frac", failFrac, "ratio");
    sheet.note("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
    return;
  }
  const auto byName = Tracer::byName();
  auto mean = [&](const char* name) {
    const auto it = byName.find(name);
    return it == byName.end() || it->second.spans == 0
               ? 0.0
               : it->second.totalSeconds / static_cast<double>(it->second.spans);
  };
  std::uint64_t windowsAfter = 0, framesAfter = 0;
  forwarded(windowsAfter, framesAfter);
  const auto qc = sut->query->counters();
  const auto& qo = pass.openEnd;
  for (int k = 0; k < kKinds; ++k) {
    if (k == kMarkerQ) {
      continue;
    }
    sheet.layer(std::string("query.") + kKindNames[k] + "_ms",
                pass.replies.perKind[k].overall(0.5), "ms");
  }
  sheet.layer("query_qps", pass.qps, "1/s");
  sheet.layer("aggregator.federation.step_us",
              mean("aggregator.federation:step") * 1e6, "us");
  sheet.layer("aggregator.federation.windows_forwarded",
              static_cast<double>(windowsAfter - windowsBefore), "count");
  sheet.layer("aggregator.federation.windows_per_frame",
              static_cast<double>(windowsAfter - windowsBefore) /
                  static_cast<double>(std::max<std::uint64_t>(1, framesAfter - framesBefore)),
              "count");
  sheet.layer("aggregator.queryservice.ladder_fallbacks",
              static_cast<double>(qo.ladderFallbacks - qcBefore.ladderFallbacks), "count");
  const double lookups = static_cast<double>((qo.cacheHits - qcBefore.cacheHits) +
                                             (qo.cacheMisses - qcBefore.cacheMisses));
  sheet.layer("aggregator.queryservice.cache_hit_ratio",
              static_cast<double>(qo.cacheHits - qcBefore.cacheHits) /
                  std::max(1.0, lookups),
              "ratio");
  sheet.layer("aggregator.queryservice.snapshot_refreshes",
              static_cast<double>(qc.snapshotRefreshes - qcBefore.snapshotRefreshes),
              "count");
  sheet.layer("aggregator.queryservice.shed",
              static_cast<double>((qc.shedLive - qcBefore.shedLive) +
                                  (qc.shedBulk - qcBefore.shedBulk)),
              "count");
  sheet.layer("aggregator.http.poll_us", mean("aggregator.http:poll") * 1e6, "us");
  sheet.layer("aggregator.http.busy_frac",
              pass.httpSeconds / std::max(1e-9, pass.loopSeconds), "ratio");
  sheet.layer("fresh_p99_ms", pass.replies.fresh.sliced(0.99), "ms");
  sheet.layer("op_p50_ms", pass.replies.all.slices(start, false).sliced(0.5), "ms");
  sheet.layer("op_p99_ms", pass.replies.all.slices(start, false).sliced(0.99), "ms");
  sheet.layer("rate_per_s", pass.rate, "1/s");
  sheet.layer("gen.late_ms", quantile(pass.late, 0.99) * 1e3, "ms");
  sheet.layer("fail_frac", failFrac, "ratio");
  const double off50 = pass.replies.all.slices(start, false).overall(0.5);
  const double on50 = pass.replies.all.slices(start, true).overall(0.5);
  sheet.layer("trace.overhead_pct",
              off50 > 0.0 ? (on50 - off50) / off50 * 100.0 : 0.0, "%");
  sheet.layer("trace.spans", static_cast<double>(Tracer::spanCount()), "count");
  const auto byLayer = Tracer::byLayer();
  for (const char* layer : {"aggregator.federation", "aggregator.http", "query"}) {
    const auto it = byLayer.find(layer);
    sheet.layer(std::string("self.") + layer + "_ms",
                it == byLayer.end() ? 0.0 : it->second.selfSeconds * 1e3, "ms");
  }
}

}  // namespace zsb
