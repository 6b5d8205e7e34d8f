// The query/dashboard service (DESIGN.md §12): snapshot-isolated reads
// under concurrent ingest, the (query, generation)-keyed result cache
// (bit-identical bodies within a generation, implicit invalidation on
// ingest, GET/POST key sharing), the downsample ladder, and load
// shedding with priority classes (live beats bulk, bulk closes under
// pressure, 429 + Retry-After, stats never shed).
#include "aggregator/queryservice.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/daemon.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "aggregator/writer.hpp"
#include "common/json.hpp"
#include "trace/metrics.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

/// QueryService resolves metric handles in its constructor, so every
/// test builds its fixtures after the registry reset.
class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::MetricsRegistry::instance().reset(); }
  void TearDown() override { trace::MetricsRegistry::instance().reset(); }
};

Frame helloFrame(int rank) {
  Frame frame;
  frame.kind = FrameKind::kHello;
  frame.hello.job = "j1";
  frame.hello.rank = rank;
  frame.hello.worldSize = 2;
  frame.hello.hostname = "node0000";
  frame.hello.pid = 100 + rank;
  return frame;
}

Frame batchFrame(double t, std::uint64_t seq, double value = 50.0) {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.timeSeconds = t;
  frame.batchSeq = seq;
  frame.enqueueSeconds = t - 0.010;
  frame.encodeSeconds = t - 0.005;
  frame.records.push_back({t, "hwt.0.user_pct", value});
  return frame;
}

/// A daemon fed over the pipe hub with the query service attached, so
/// the per-record ladder hook fires exactly as it does in zerosum-aggd.
struct QueryPlane {
  explicit QueryPlane(QueryServiceOptions queryOptions = {},
                      DaemonOptions daemonOptions = {})
      : daemon(hub.makeServer(), {}, daemonOptions),
        service(daemon, queryOptions),
        source(hub.makeClientTransport()) {
    daemon.attachQueryService(&service);
    EXPECT_TRUE(source->connect());
    EXPECT_TRUE(source->send(encodeFrame(helloFrame(0))));
  }

  /// One record at `t`, ingested and visible in the store.
  void ingest(double t, std::uint64_t seq, double value = 50.0) {
    ASSERT_TRUE(source->send(encodeFrame(batchFrame(t, seq, value))));
    daemon.poll(t);
  }

  PipeHub hub;
  Aggregator daemon;
  QueryService service;
  std::unique_ptr<Transport> source;
};

}  // namespace

TEST_F(QueryServiceTest, SnapshotIsFrozenWhileIngestAdvances) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const auto snap = plane.service.snapshot();
  ASSERT_NE(snap, nullptr);
  const std::uint64_t frozen = snap->generation();
  ASSERT_EQ(snap->seriesCount(), 1u);

  // The live store moves on; the handed-out snapshot must not.
  plane.ingest(2.0, 2, 90.0);
  EXPECT_GT(plane.daemon.store().dataGeneration(), frozen);
  EXPECT_EQ(snap->generation(), frozen);
  const SeriesKey key{"j1", 0, "hwt.0.user_pct"};
  const auto latest = snap->latest(key);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->rollup.max, 50.0);  // the t=2 record is not in it

  // The next read refreshes to the new generation.
  const auto fresh = plane.service.snapshot();
  EXPECT_EQ(fresh->generation(), plane.daemon.store().dataGeneration());
  EXPECT_EQ(fresh->latest(key)->rollup.max, 90.0);
}

TEST_F(QueryServiceTest, SnapshotReadsTheLiveGenerationOneRefreshEach) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const auto first = plane.service.snapshot();
  EXPECT_EQ(first->generation(), plane.daemon.store().dataGeneration());
  // No ingest since: the shared snapshot is reused, not refreshed.
  const auto again = plane.service.snapshot();
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(plane.service.counters().snapshotRefreshes, 1u);

  // However soon after ingest, the next read sees the live generation —
  // and two mutations between reads still cost a single refresh.
  plane.ingest(1.001, 2);
  plane.ingest(1.002, 3);
  const auto live = plane.service.snapshot();
  EXPECT_NE(first.get(), live.get());
  EXPECT_EQ(live->generation(), plane.daemon.store().dataGeneration());
  EXPECT_EQ(live->latest({"j1", 0, "hwt.0.user_pct"})->rollup.count, 3u);
  EXPECT_EQ(plane.service.snapshot().get(), live.get());
  EXPECT_EQ(plane.service.counters().snapshotRefreshes, 2u);
  // The earlier snapshot is untouched by the writes it did not see.
  EXPECT_EQ(first->latest({"j1", 0, "hwt.0.user_pct"})->rollup.count, 1u);
}

TEST_F(QueryServiceTest, ConcurrentReadersSeeConsistentGenerations) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  // Readers hammer execute() from four threads while the main thread
  // keeps ingesting.  Every response must be a complete, well-formed
  // document whose generation is consistent (monotone per thread) —
  // a torn read would surface as a parse error or a bogus generation.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&plane, &stop, &failures] {
      std::uint64_t lastGeneration = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryResult result = plane.service.execute(
            "{\"op\":\"snapshot\"}", QueryClass::kLive, 1.0);
        if (result.status != 200) continue;  // shed is a legal outcome
        try {
          const json::Value doc = json::parse(result.body);
          const auto generation =
              static_cast<std::uint64_t>(doc.numberOr("generation", 0));
          if (generation < lastGeneration) {
            failures.fetch_add(1);
          }
          lastGeneration = generation;
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::uint64_t seq = 2; seq <= 200; ++seq) {
    plane.service.beginPoll(static_cast<double>(seq));
    plane.ingest(static_cast<double>(seq), seq,
                 static_cast<double>(seq % 100));
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(QueryServiceTest, CacheServesBitIdenticalBodiesWithinAGeneration) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const QueryResult first = plane.service.execute(
      "{\"op\":\"snapshot\",\"metric\":\"hwt.0.user_pct\"}",
      QueryClass::kLive, 1.0);
  ASSERT_EQ(first.status, 200);
  EXPECT_FALSE(first.cacheHit);

  const QueryResult second = plane.service.execute(
      "{\"op\":\"snapshot\",\"metric\":\"hwt.0.user_pct\"}",
      QueryClass::kLive, 1.1);
  ASSERT_EQ(second.status, 200);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(plane.service.counters().cacheHits, 1u);
}

TEST_F(QueryServiceTest, IngestInvalidatesCachedBodies) {
  QueryPlane plane;
  plane.ingest(1.0, 1);
  const QueryResult before = plane.service.execute(
      "{\"op\":\"snapshot\"}", QueryClass::kLive, 1.0);
  ASSERT_EQ(before.status, 200);

  plane.ingest(2.0, 2, 99.0);
  // Past the refresh interval: the generation bump makes the old cache
  // key unreachable, and the sweep reclaims the entry.
  const QueryResult after = plane.service.execute(
      "{\"op\":\"snapshot\"}", QueryClass::kLive, 2.0);
  ASSERT_EQ(after.status, 200);
  EXPECT_FALSE(after.cacheHit);
  EXPECT_NE(before.body, after.body);
  EXPECT_EQ(plane.service.cacheEntries(), 1u);  // old entry swept
}

TEST_F(QueryServiceTest, GetAndPostFormsShareOneCacheEntry) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const QueryResult post = plane.service.execute(
      "{\"op\":\"range\",\"job\":\"j1\",\"rank\":0,"
      "\"metric\":\"hwt.0.user_pct\",\"t0\":0,\"t1\":10}",
      QueryClass::kLive, 1.0);
  ASSERT_EQ(post.status, 200);
  EXPECT_FALSE(post.cacheHit);

  const QueryResult get = plane.service.executeParams(
      "range",
      {{"job", "j1"}, {"rank", "0"}, {"metric", "hwt.0.user_pct"},
       {"t0", "0"}, {"t1", "10"}},
      QueryClass::kLive, 1.1);
  ASSERT_EQ(get.status, 200);
  EXPECT_TRUE(get.cacheHit);
  EXPECT_EQ(post.body, get.body);
  EXPECT_EQ(plane.service.cacheEntries(), 1u);
}

TEST_F(QueryServiceTest, CacheBoundsEvictLeastRecentlyUsed) {
  QueryServiceOptions options;
  options.cacheMaxEntries = 2;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  (void)plane.service.execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  (void)plane.service.execute("{\"op\":\"snapshot\"}", QueryClass::kLive,
                              1.0);
  (void)plane.service.execute(
      "{\"op\":\"snapshot\",\"rank\":0}", QueryClass::kLive, 1.0);
  EXPECT_EQ(plane.service.cacheEntries(), 2u);
  EXPECT_EQ(plane.service.counters().cacheEvictions, 1u);
  // The oldest entry (series) was the victim: asking again misses.
  const QueryResult again = plane.service.execute(
      "{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  EXPECT_FALSE(again.cacheHit);
}

TEST_F(QueryServiceTest, WindowQueriesServeFromTheLadder) {
  QueryPlane plane;
  for (std::uint64_t seq = 1; seq <= 30; ++seq) {
    plane.ingest(static_cast<double>(seq), seq, static_cast<double>(seq));
  }
  const QueryResult result = plane.service.executeParams(
      "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "60"}},
      QueryClass::kLive, 30.0);
  ASSERT_EQ(result.status, 200);
  const json::Value doc = json::parse(result.body);
  const auto& series = doc.find("series")->asArray();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].find("from_ladder")->asBool());
  EXPECT_EQ(series[0].numberOr("min", -1), 1.0);
  EXPECT_EQ(series[0].numberOr("max", -1), 30.0);
  EXPECT_EQ(series[0].numberOr("count", -1), 30.0);
  EXPECT_EQ(plane.service.counters().ladderRecords, 30u);
  EXPECT_EQ(plane.service.counters().ladderFallbacks, 0u);
}

TEST_F(QueryServiceTest, OffLadderWindowsFallBackToTheSnapshot) {
  QueryPlane plane;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    plane.ingest(static_cast<double>(seq), seq, static_cast<double>(seq));
  }
  // 7s is not a configured ladder window: answered from the snapshot's
  // trailing fine windows and counted as a fallback.
  const QueryResult result = plane.service.executeParams(
      "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "7"}},
      QueryClass::kLive, 10.0);
  ASSERT_EQ(result.status, 200);
  const json::Value doc = json::parse(result.body);
  const auto& series = doc.find("series")->asArray();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_FALSE(series[0].find("from_ladder")->asBool());
  EXPECT_GT(series[0].numberOr("count", 0), 0.0);
  EXPECT_EQ(plane.service.counters().ladderFallbacks, 1u);
}

TEST_F(QueryServiceTest, BudgetExhaustionShedsWithRetryAfter) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 3;
  options.cacheMaxEntries = 0;  // every query must claim budget
  options.retryAfterSeconds = 2.0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plane.service
                  .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                  .status,
              200);
  }
  const QueryResult shed =
      plane.service.execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.retryAfterSeconds, 2.0);
  EXPECT_EQ(plane.service.counters().shedLive, 1u);

  // A new poll reopens the budget.
  plane.service.beginPoll(2.0);
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 2.0)
                .status,
            200);
}

TEST_F(QueryServiceTest, LiveCompletesWhileBulkSheds) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 8;
  options.bulkQueriesPerPoll = 1;
  options.cacheMaxEntries = 0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  // Exports force the bulk class regardless of what the caller asked.
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"export\"}", QueryClass::kLive, 1.0)
                .status,
            200);
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"export\"}", QueryClass::kBulk, 1.0)
                .status,
            429);
  // The live plane is untouched by the exhausted bulk slice.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(plane.service
                  .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                  .status,
              200);
  }
  const QueryServiceCounters counters = plane.service.counters();
  EXPECT_EQ(counters.servedBulk, 1u);
  EXPECT_EQ(counters.shedBulk, 1u);
  EXPECT_EQ(counters.servedLive, 7u);
  EXPECT_EQ(counters.shedLive, 0u);
}

TEST_F(QueryServiceTest, PressureClosesTheBulkClassEntirely) {
  DaemonOptions daemonOptions;
  daemonOptions.maxPendingBatches = 10;
  daemonOptions.maxBatchesPerPoll = 1;
  QueryServiceOptions options;
  options.cacheMaxEntries = 0;
  QueryPlane plane(options, daemonOptions);
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    ASSERT_TRUE(plane.source->send(encodeFrame(batchFrame(1.0, seq))));
  }
  plane.daemon.poll(1.0);
  ASSERT_NE(plane.daemon.pressure(), PressureLevel::kOk);

  plane.service.beginPoll(1.0);
  const QueryResult bulk =
      plane.service.execute("{\"op\":\"export\"}", QueryClass::kBulk, 1.0);
  EXPECT_EQ(bulk.status, 429);
  // Retry-After is scaled up by the pressure ladder.
  EXPECT_GT(bulk.retryAfterSeconds, options.retryAfterSeconds);
  // Live dashboards keep being served through the same overload.
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                .status,
            200);
}

TEST_F(QueryServiceTest, StatsAreNeverCachedOrShed) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 0;  // everything else sheds immediately
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  ASSERT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                .status,
            429);
  const QueryResult stats =
      plane.service.execute("{\"op\":\"stats\"}", QueryClass::kLive, 1.0);
  ASSERT_EQ(stats.status, 200);
  EXPECT_FALSE(stats.cacheHit);
  const json::Value doc = json::parse(stats.body);
  // The operator can see the shedding while it happens.
  EXPECT_EQ(doc.find("queries")->numberOr("shed_live", -1), 1.0);
  EXPECT_EQ(doc.stringOr("pressure", ""), "ok");
}

TEST_F(QueryServiceTest, MalformedQueriesAre400NeverThrown) {
  QueryPlane plane;
  plane.ingest(1.0, 1);
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      "{\"op\":\"nope\"}",
      "{\"op\":\"range\"}",                        // range needs a metric
      "{\"op\":\"window\",\"metric\":\"m\",\"window_s\":0}",
      "{\"op\":\"snapshot\",\"resolution\":\"huge\"}",
  };
  for (const char* request : bad) {
    const QueryResult result =
        plane.service.execute(request, QueryClass::kLive, 1.0);
    EXPECT_EQ(result.status, 400) << request;
    EXPECT_NE(result.body.find("error"), std::string::npos) << request;
  }
  EXPECT_EQ(plane.service.counters().badRequests, 6u);
  // GET-form parameter errors take the same path.
  const QueryResult result = plane.service.executeParams(
      "range", {{"metric", "m"}, {"t0", "abc"}}, QueryClass::kLive, 1.0);
  EXPECT_EQ(result.status, 400);
}

TEST_F(QueryServiceTest, ExportsSerializeAgainstTheThreadedWriter) {
  // zerosum-aggd --async-writer: the writer's worker thread appends to
  // the engine while exports read it.  The engine is single-owner, so
  // exports must take the writer's engine lock (run under TSan in CI).
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("zs_query_export_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    tsdb::EngineOptions engineOptions;
    engineOptions.fsync = tsdb::FsyncPolicy::kOff;
    engineOptions.walRotateBytes = 16 * 1024;  // compactions mid-export
    tsdb::Engine engine(dir.string(), engineOptions);
    WriterOptions writerOptions;
    writerOptions.threaded = true;
    TsdbWriter writer(&engine, writerOptions);
    PipeHub hub;
    Aggregator daemon(hub.makeServer());
    daemon.attachWriter(&writer);
    QueryService service(daemon);

    std::atomic<bool> stop{false};
    std::uint64_t submitted = 0;
    std::thread appender([&] {
      // Bounded (8000 samples, ~15 compactions) so engine retention never
      // drops a segment: every export must see a superset of the last.
      for (int i = 0; i < 4000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        const std::vector<tsdb::Sample> samples{
            {0.01 * i, "cpu.util", static_cast<double>(i % 100)},
            {0.01 * i, "mem.rss", static_cast<double>(i)}};
        if (writer.submit("j1", i % 4, samples)) {
          submitted += samples.size();
        }
        // Paced below the worker's drain rate, so the daemon stays out of
        // pressure and bulk exports are admitted.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    int answered = 0;
    std::uint64_t lastTotal = 0;
    for (int q = 0; q < 200; ++q) {
      service.beginPoll(static_cast<double>(q));
      const QueryResult result =
          service.execute("{\"op\":\"export\"}", QueryClass::kBulk,
                          static_cast<double>(q));
      if (result.status != 200) continue;  // shed under writer pressure
      ++answered;
      const json::Value doc = json::parse(result.body);
      std::uint64_t total = 0;
      for (const json::Value& series : doc.find("series")->asArray()) {
        for (const json::Value& row : series.find("windows")->asArray()) {
          total += static_cast<std::uint64_t>(row.numberOr("count", 0));
        }
      }
      EXPECT_GE(total, lastTotal) << "export went backwards";
      lastTotal = total;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
    appender.join();
    writer.flush();
    EXPECT_GT(answered, 0);
    EXPECT_GT(lastTotal, 0u);  // exports read the engine mid-append
    // Once drained, an export holds every appended sample.
    service.beginPoll(1000.0);
    const QueryResult last =
        service.execute("{\"op\":\"export\"}", QueryClass::kBulk, 1000.0);
    ASSERT_EQ(last.status, 200);
    const json::Value doc = json::parse(last.body);
    std::uint64_t total = 0;
    for (const json::Value& series : doc.find("series")->asArray()) {
      for (const json::Value& row : series.find("windows")->asArray()) {
        total += static_cast<std::uint64_t>(row.numberOr("count", 0));
      }
    }
    EXPECT_EQ(total, submitted);
  }
  fs::remove_all(dir);
}
