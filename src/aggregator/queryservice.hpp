// QueryService: the high-traffic read plane of the aggregation daemon —
// the ROADMAP's "serve many simultaneous dashboard readers while jobs
// are writing" milestone (DESIGN.md §12).
//
// Three mechanisms, layered over the existing store/engine/HTTP stack:
//
//   1. Snapshot-isolated reads.  Readers never touch the live
//      RollupStore: the service keeps one shared immutable StoreSnapshot
//      (shared_ptr) and refreshes it whenever the store's
//      dataGeneration() has advanced, so every query reads the store's
//      current generation.  A refresh shares window storage with the
//      store (copy-on-write) and costs one pointer per series, so it
//      needs no rate limit.  Every query runs against a frozen
//      generation — no torn reads, no reader-side shard-lock contention
//      against ingest.
//
//   2. A bounded query-result cache keyed by (normalized query,
//      generation).  GET and POST forms of the same logical query
//      normalize to one canonical key, so they share entries; a key
//      embeds the generation it was computed at, so an ingest-driven
//      generation bump invalidates implicitly (stale keys can never be
//      asked for again) and a sweep on refresh reclaims the memory.
//      Within one generation the cache returns bit-identical bodies.
//      `series` answers depend only on the key set, so they key on the
//      store's membership generation and stay cached while only data
//      changes; exports key on the tsdb engine's generation.
//      On top of the cache, precomputed downsample ladders for the
//      common dashboard windows (last 1m / 10m / 1h) are maintained
//      incrementally on ingest — a ring of sub-window rollups per
//      series per window — so "last minute, all ranks" is O(series),
//      not O(series x windows).  Series that arrive through federation
//      forwarding (ingestWindow, which bypasses the per-record hook)
//      fall back to computing the window from the snapshot, counted.
//
//   3. Load shedding with priority classes.  Queries are kLive
//      (dashboard) or kBulk (export); each poll grants a bounded budget
//      (live gets the whole budget, bulk a small slice that closes
//      entirely while the daemon's PressureLevel is elevated), and a
//      query past its budget is shed with 429 + Retry-After scaled by
//      pressure instead of queueing — reads can never starve ingest.
//      Cache hits are always served: they cost no snapshot work.
//
// Thread safety: execute() may be called from any thread.  The live
// store underneath is the sharded RollupStore (safe), pressure() reads
// are advisory, and the service's own state is split across small
// mutexes (snapshot, cache, ladder, admission) that are never nested.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "aggregator/store.hpp"
#include "common/interning.hpp"
#include "trace/metrics.hpp"

namespace zerosum::aggregator {

class Aggregator;

/// Priority class of one query.  Live beats bulk under load.
enum class QueryClass : std::uint8_t { kLive, kBulk };

[[nodiscard]] const char* queryClassName(QueryClass cls);

struct QueryServiceOptions {
  /// Result-cache bounds; 0 entries disables caching entirely.
  std::size_t cacheMaxEntries = 256;
  std::size_t cacheMaxBytes = 4 * 1024 * 1024;
  /// Admission budgets, reset by beginPoll(): total queries per poll,
  /// and the slice of that total bulk-class queries may use.
  std::size_t maxQueriesPerPoll = 128;
  std::size_t bulkQueriesPerPoll = 8;
  /// Base Retry-After for shed queries; scaled x2 / x5 as the daemon's
  /// pressure ladder rises.
  double retryAfterSeconds = 1.0;
  /// Dashboard ladder windows (seconds) and sub-buckets per window.
  std::vector<double> ladderWindowsSeconds = {60.0, 600.0, 3600.0};
  int ladderBuckets = 60;
};

struct QueryServiceCounters {
  std::uint64_t served = 0;       ///< 200s, cache hits included
  std::uint64_t servedLive = 0;
  std::uint64_t servedBulk = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t shedLive = 0;     ///< 429s per class
  std::uint64_t shedBulk = 0;
  std::uint64_t snapshotRefreshes = 0;
  std::uint64_t ladderRecords = 0;    ///< records folded into the ladder
  std::uint64_t ladderFallbacks = 0;  ///< window series answered from the
                                      ///< snapshot (forwarded series)
  std::uint64_t badRequests = 0;  ///< 400s
};

/// Outcome of one execute().
struct QueryResult {
  int status = 200;  ///< 200, 400, or 429
  std::string body;  ///< JSON document (trailing newline included)
  bool cacheHit = false;
  double retryAfterSeconds = 0.0;  ///< > 0 only when status == 429
};

class QueryService {
 public:
  /// `daemon` must outlive the service.
  explicit QueryService(const Aggregator& daemon,
                        QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a fresh admission budget and releases the snapshot the last
  /// refresh replaced.  The owner's event loop calls this once per
  /// iteration, before the HTTP poll that delivers queries.
  void beginPoll(double nowSeconds);

  /// Ingest hook (called by the daemon per record): folds one
  /// observation into the downsample ladders.  Cheap — a few ring-slot
  /// merges under one mutex.
  void onRecord(const std::string& job, int rank, names::Id metric,
                double timeSeconds, double value);

  /// Executes one JSON query (POST body grammar; see DESIGN.md §12).
  /// Never throws: malformed input yields 400, shed load 429.
  [[nodiscard]] QueryResult execute(const std::string& requestJson,
                                    QueryClass cls, double nowSeconds);

  /// Same queries in GET form: `op` from the path, parameters from the
  /// decoded query string.  Normalizes to the identical cache key as the
  /// POST form.
  [[nodiscard]] QueryResult executeParams(
      const std::string& op, const std::map<std::string, std::string>& params,
      QueryClass cls, double nowSeconds);

  /// The shared read snapshot at the store's current generation,
  /// refreshed first when the store moved.  Never null.
  [[nodiscard]] std::shared_ptr<const StoreSnapshot> snapshot();

  [[nodiscard]] QueryServiceCounters counters() const;
  [[nodiscard]] std::size_t cacheEntries() const;
  [[nodiscard]] std::size_t cacheBytes() const;
  [[nodiscard]] const QueryServiceOptions& options() const {
    return options_;
  }

  /// The {"op":"stats"} body — the service's own observability surface.
  [[nodiscard]] std::string statsJson(double nowSeconds);

 private:
  /// A query parsed and normalized: every executable field made
  /// explicit, defaults applied, so `key` is canonical across GET/POST.
  struct Parsed {
    std::string op;
    std::string error;  ///< non-empty -> 400
    std::string job;
    bool hasJob = false;
    int rank = 0;
    bool hasRank = false;
    std::string metric;
    double t0 = 0.0;
    double t1 = 1e18;
    Resolution resolution = Resolution::kFine;
    double windowSeconds = 60.0;  ///< `window` op
    std::string key;              ///< canonical cache key (sans generation)
  };

  /// One ring of sub-window rollups for one ladder window.
  struct LadderRing {
    std::vector<Rollup> slots;
    std::vector<std::int64_t> slotIndex;  ///< absolute sub-window; -1 empty
  };
  struct LadderSeries {
    std::vector<LadderRing> rings;  ///< one per options_.ladderWindowsSeconds
  };
  /// Combined result of reading one ladder window of one series.
  struct LadderWindow {
    Rollup rollup;
    std::size_t buckets = 0;
    bool fromLadder = false;
  };

  static Parsed parseJson(const std::string& requestJson);
  static Parsed parseParams(const std::string& op,
                            const std::map<std::string, std::string>& params);
  /// Fills Parsed::key and validates op-specific requirements.
  static void normalize(Parsed& parsed);

  [[nodiscard]] QueryResult run(Parsed& parsed, QueryClass cls,
                                double nowSeconds);
  /// Admission control: true to execute now, false -> shed (429).
  bool admit(QueryClass cls, double* retryAfter);
  void finish(QueryClass cls, bool cacheHit, double elapsedSeconds);

  [[nodiscard]] std::string runSeries(const StoreSnapshot& snap);
  [[nodiscard]] std::string runSnapshotOp(const StoreSnapshot& snap,
                                          const Parsed& parsed);
  [[nodiscard]] std::string runRange(const StoreSnapshot& snap,
                                     const Parsed& parsed);
  [[nodiscard]] std::string runWindow(const StoreSnapshot& snap,
                                      const Parsed& parsed);
  [[nodiscard]] std::string runExport(const StoreSnapshot& snap,
                                      const Parsed& parsed);

  /// Reads one series' trailing window from the ladder; fromLadder false
  /// when the series has no ladder state (forwarded series).
  [[nodiscard]] LadderWindow ladderRead(const SeriesKey& key,
                                        double windowSeconds, double anchor);

  /// Which generation counter a cache entry's key embeds.
  enum class CacheDomain : std::uint8_t { kData, kMembership, kEngine };

  [[nodiscard]] std::string cacheLookup(const std::string& key);
  void cacheInsert(const std::string& key, CacheDomain domain,
                   std::uint64_t generation, const std::string& body);
  /// Drops every entry keyed to a generation older than its domain's
  /// current one (those keys can never be asked for again).
  void cacheSweep(const StoreSnapshot& current);

  const Aggregator& daemon_;
  QueryServiceOptions options_;

  // --- shared snapshot (snapMutex_) ----------------------------------------
  mutable std::mutex snapMutex_;
  std::shared_ptr<const StoreSnapshot> snap_;
  /// The snapshot the last refresh replaced, released by beginPoll().
  std::shared_ptr<const StoreSnapshot> retired_;

  // --- result cache (cacheMutex_) ------------------------------------------
  struct CacheEntry {
    std::string key;
    CacheDomain domain = CacheDomain::kData;
    std::uint64_t generation = 0;
    std::string body;
  };
  mutable std::mutex cacheMutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::map<std::string, std::list<CacheEntry>::iterator> cacheIndex_;
  std::size_t cacheBytes_ = 0;

  // --- downsample ladder (ladderMutex_) ------------------------------------
  mutable std::mutex ladderMutex_;
  std::map<std::tuple<std::string, int, names::Id>, LadderSeries> ladder_;
  double ladderMaxTimeSeconds_ = 0.0;

  // --- admission (admitMutex_) ---------------------------------------------
  mutable std::mutex admitMutex_;
  std::size_t queriesThisPoll_ = 0;
  std::size_t bulkThisPoll_ = 0;

  // --- counters (atomic; read via counters()) ------------------------------
  std::atomic<std::uint64_t> served_{0}, servedLive_{0}, servedBulk_{0};
  std::atomic<std::uint64_t> cacheHits_{0}, cacheMisses_{0},
      cacheEvictions_{0};
  std::atomic<std::uint64_t> shedLive_{0}, shedBulk_{0};
  std::atomic<std::uint64_t> snapshotRefreshes_{0};
  std::atomic<std::uint64_t> ladderRecords_{0}, ladderFallbacks_{0};
  std::atomic<std::uint64_t> badRequests_{0};

  /// Per-class service latency, exported as zs.query.latency.* in
  /// /metrics.  Per-instance handles: tests reset the registry.
  trace::LatencyHistogram* latLive_ = nullptr;
  trace::LatencyHistogram* latBulk_ = nullptr;
  trace::Counter* ctrServed_ = nullptr;
  trace::Counter* ctrShed_ = nullptr;
  trace::Counter* ctrCacheHits_ = nullptr;
};

}  // namespace zerosum::aggregator
