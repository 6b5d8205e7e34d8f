#include "aggregator/queryservice.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "aggregator/daemon.hpp"
#include "common/json.hpp"
#include "common/monotime.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

namespace {

/// Shortest exact double for cache keys: 17 significant digits round-trip
/// every IEEE double, so a GET param and a POST field that parsed to the
/// same value always canonicalize to the same key.
std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string errorBody(const std::string& message) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().field("error", message).endObject();
  out << '\n';
  return out.str();
}

void writeWindowRow(json::Writer& w, const WindowRollup& row) {
  w.beginObject()
      .field("t", row.windowStartSeconds)
      .field("window_s", row.windowSeconds)
      .field("min", row.rollup.min)
      .field("avg", row.rollup.avg())
      .field("max", row.rollup.max)
      .field("count", row.rollup.count)
      .endObject();
}

}  // namespace

const char* queryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kLive: return "live";
    case QueryClass::kBulk: return "bulk";
  }
  return "unknown";
}

QueryService::QueryService(const Aggregator& daemon,
                           QueryServiceOptions options)
    : daemon_(daemon), options_(std::move(options)) {
  auto& registry = trace::MetricsRegistry::instance();
  latLive_ = &registry.latency("zs.query.latency.live_seconds");
  latBulk_ = &registry.latency("zs.query.latency.bulk_seconds");
  ctrServed_ = &registry.counter("zs.query.served");
  ctrShed_ = &registry.counter("zs.query.shed");
  ctrCacheHits_ = &registry.counter("zs.query.cache_hits");
}

void QueryService::beginPoll(double nowSeconds) {
  (void)nowSeconds;
  std::shared_ptr<const StoreSnapshot> retired;
  {
    std::lock_guard<std::mutex> lock(snapMutex_);
    retired = std::move(retired_);
  }
  {
    std::lock_guard<std::mutex> lock(admitMutex_);
    queriesThisPoll_ = 0;
    bulkThisPoll_ = 0;
  }
  // `retired` is released here, between polls: freeing the versions
  // only it still held is kept off the request that refreshed.
}

void QueryService::onRecord(const std::string& job, int rank,
                            names::Id metric, double timeSeconds,
                            double value) {
  std::lock_guard<std::mutex> lock(ladderMutex_);
  LadderSeries& series = ladder_[{job, rank, metric}];
  if (series.rings.empty()) {
    series.rings.resize(options_.ladderWindowsSeconds.size());
    for (auto& ring : series.rings) {
      ring.slots.resize(static_cast<std::size_t>(options_.ladderBuckets));
      ring.slotIndex.assign(static_cast<std::size_t>(options_.ladderBuckets),
                            -1);
    }
  }
  for (std::size_t i = 0; i < series.rings.size(); ++i) {
    const double sub = options_.ladderWindowsSeconds[i] /
                       static_cast<double>(options_.ladderBuckets);
    const auto idx = static_cast<std::int64_t>(std::floor(timeSeconds / sub));
    LadderRing& ring = series.rings[i];
    const auto buckets = static_cast<std::int64_t>(ring.slots.size());
    const auto slot =
        static_cast<std::size_t>(((idx % buckets) + buckets) % buckets);
    if (ring.slotIndex[slot] != idx) {
      // Ring wrap: this slot last held a sub-window one full window ago.
      ring.slots[slot] = Rollup{};
      ring.slotIndex[slot] = idx;
    }
    ring.slots[slot].merge(value);
  }
  ladderMaxTimeSeconds_ = std::max(ladderMaxTimeSeconds_, timeSeconds);
  ladderRecords_.fetch_add(1, std::memory_order_relaxed);
}

QueryResult QueryService::execute(const std::string& requestJson,
                                  QueryClass cls, double nowSeconds) {
  Parsed parsed = parseJson(requestJson);
  return run(parsed, cls, nowSeconds);
}

QueryResult QueryService::executeParams(
    const std::string& op, const std::map<std::string, std::string>& params,
    QueryClass cls, double nowSeconds) {
  Parsed parsed = parseParams(op, params);
  return run(parsed, cls, nowSeconds);
}

std::shared_ptr<const StoreSnapshot> QueryService::snapshot() {
  std::shared_ptr<const StoreSnapshot> out;
  std::shared_ptr<const StoreSnapshot> dropped;  // released unlocked
  bool refreshed = false;
  {
    std::lock_guard<std::mutex> lock(snapMutex_);
    // A refresh copies one version pointer per series (the store shares
    // window storage copy-on-write), so every stale read refreshes.  The
    // replaced snapshot waits in retired_ for the next beginPoll().
    if (!snap_ || snap_->generation() != daemon_.store().dataGeneration()) {
      dropped = std::exchange(
          retired_,
          std::exchange(snap_, std::make_shared<const StoreSnapshot>(
                                   daemon_.store().snapshot())));
      refreshed = true;
      snapshotRefreshes_.fetch_add(1, std::memory_order_relaxed);
    }
    out = snap_;
  }
  if (refreshed) {
    // Generation moved: every cached body keyed to an older generation
    // can never be requested again (keys embed the generation), so
    // reclaim the memory eagerly rather than waiting for LRU pressure.
    cacheSweep(*out);
  }
  return out;
}

QueryServiceCounters QueryService::counters() const {
  QueryServiceCounters out;
  out.served = served_.load(std::memory_order_relaxed);
  out.servedLive = servedLive_.load(std::memory_order_relaxed);
  out.servedBulk = servedBulk_.load(std::memory_order_relaxed);
  out.cacheHits = cacheHits_.load(std::memory_order_relaxed);
  out.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
  out.cacheEvictions = cacheEvictions_.load(std::memory_order_relaxed);
  out.shedLive = shedLive_.load(std::memory_order_relaxed);
  out.shedBulk = shedBulk_.load(std::memory_order_relaxed);
  out.snapshotRefreshes = snapshotRefreshes_.load(std::memory_order_relaxed);
  out.ladderRecords = ladderRecords_.load(std::memory_order_relaxed);
  out.ladderFallbacks = ladderFallbacks_.load(std::memory_order_relaxed);
  out.badRequests = badRequests_.load(std::memory_order_relaxed);
  return out;
}

std::size_t QueryService::cacheEntries() const {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  return lru_.size();
}

std::size_t QueryService::cacheBytes() const {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  return cacheBytes_;
}

std::string QueryService::statsJson(double nowSeconds) {
  const QueryServiceCounters c = counters();
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(snapMutex_);
    if (snap_) generation = snap_->generation();
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("time_seconds", nowSeconds)
      .field("pressure", pressureLevelName(daemon_.pressure()))
      .field("snapshot_generation", generation)
      .field("store_generation", daemon_.store().dataGeneration())
      .key("queries")
      .beginObject()
      .field("served", c.served)
      .field("served_live", c.servedLive)
      .field("served_bulk", c.servedBulk)
      .field("shed_live", c.shedLive)
      .field("shed_bulk", c.shedBulk)
      .field("bad_requests", c.badRequests)
      .endObject()
      .key("cache")
      .beginObject()
      .field("hits", c.cacheHits)
      .field("misses", c.cacheMisses)
      .field("evictions", c.cacheEvictions)
      .field("entries", std::uint64_t{cacheEntries()})
      .field("bytes", std::uint64_t{cacheBytes()})
      .endObject()
      .key("snapshot")
      .beginObject()
      .field("refreshes", c.snapshotRefreshes)
      .endObject()
      .key("ladder")
      .beginObject()
      .field("records", c.ladderRecords)
      .field("fallbacks", c.ladderFallbacks)
      .endObject()
      .endObject();
  out << '\n';
  return out.str();
}

// --- parsing / normalization -----------------------------------------------

QueryService::Parsed QueryService::parseJson(const std::string& requestJson) {
  Parsed parsed;
  try {
    const json::Value req = json::parse(requestJson);
    if (!req.isObject()) {
      parsed.error = "request must be a JSON object";
      return parsed;
    }
    parsed.op = req.stringOr("op", "");
    if (const json::Value* v = req.find("job")) {
      parsed.job = v->asString();
      parsed.hasJob = true;
    }
    if (const json::Value* v = req.find("rank")) {
      parsed.rank = static_cast<int>(v->asNumber());
      parsed.hasRank = true;
    }
    parsed.metric = req.stringOr("metric", "");
    parsed.t0 = req.numberOr("t0", 0.0);
    parsed.t1 = req.numberOr("t1", 1e18);
    const std::string res = req.stringOr("resolution", "fine");
    if (res != "fine" && res != "coarse") {
      parsed.error = "resolution must be \"fine\" or \"coarse\"";
      return parsed;
    }
    parsed.resolution = res == "coarse" ? Resolution::kCoarse
                                        : Resolution::kFine;
    parsed.windowSeconds = req.numberOr("window_s", 60.0);
  } catch (const std::exception& e) {
    parsed.error = std::string("bad request: ") + e.what();
    return parsed;
  }
  normalize(parsed);
  return parsed;
}

QueryService::Parsed QueryService::parseParams(
    const std::string& op, const std::map<std::string, std::string>& params) {
  Parsed parsed;
  parsed.op = op;
  auto number = [&](const std::string& name, double fallback,
                    bool* present = nullptr) {
    const auto it = params.find(name);
    if (it == params.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || (end != nullptr && *end != '\0')) {
      parsed.error = "parameter \"" + name + "\" is not a number";
      return fallback;
    }
    if (present != nullptr) *present = true;
    return v;
  };
  if (const auto it = params.find("job"); it != params.end()) {
    parsed.job = it->second;
    parsed.hasJob = true;
  }
  parsed.rank = static_cast<int>(number("rank", 0.0, &parsed.hasRank));
  if (const auto it = params.find("metric"); it != params.end()) {
    parsed.metric = it->second;
  }
  parsed.t0 = number("t0", 0.0);
  parsed.t1 = number("t1", 1e18);
  if (const auto it = params.find("resolution"); it != params.end()) {
    if (it->second != "fine" && it->second != "coarse") {
      parsed.error = "resolution must be \"fine\" or \"coarse\"";
      return parsed;
    }
    parsed.resolution = it->second == "coarse" ? Resolution::kCoarse
                                               : Resolution::kFine;
  }
  parsed.windowSeconds = number("window_s", 60.0);
  if (!parsed.error.empty()) {
    return parsed;
  }
  normalize(parsed);
  return parsed;
}

void QueryService::normalize(Parsed& parsed) {
  if (parsed.op != "series" && parsed.op != "snapshot" &&
      parsed.op != "range" && parsed.op != "window" &&
      parsed.op != "export" && parsed.op != "stats") {
    parsed.error = "unknown op \"" + parsed.op + "\"";
    return;
  }
  if ((parsed.op == "range" || parsed.op == "window") &&
      parsed.metric.empty()) {
    parsed.error = parsed.op + " query requires \"metric\"";
    return;
  }
  if (parsed.op == "window" && !(parsed.windowSeconds > 0.0)) {
    parsed.error = "window_s must be > 0";
    return;
  }
  // Canonical cache key: every executable field, length-prefixed strings
  // so a metric name containing a delimiter cannot forge another field.
  // GET and POST forms of the same logical query build the same key.
  std::ostringstream key;
  key << parsed.op << "|j";
  if (parsed.hasJob) {
    key << parsed.job.size() << ':' << parsed.job;
  } else {
    key << '-';
  }
  key << "|r";
  if (parsed.hasRank) {
    key << parsed.rank;
  } else {
    key << '-';
  }
  key << "|m" << parsed.metric.size() << ':' << parsed.metric << "|t"
      << fmtDouble(parsed.t0) << ',' << fmtDouble(parsed.t1) << "|"
      << (parsed.resolution == Resolution::kCoarse ? 'c' : 'f') << "|w"
      << fmtDouble(parsed.windowSeconds);
  parsed.key = key.str();
}

// --- execution -------------------------------------------------------------

QueryResult QueryService::run(Parsed& parsed, QueryClass cls,
                              double nowSeconds) {
  if (!parsed.error.empty()) {
    badRequests_.fetch_add(1, std::memory_order_relaxed);
    return {400, errorBody(parsed.error), false, 0.0};
  }
  if (parsed.op == "export") {
    cls = QueryClass::kBulk;  // exports can never claim the live budget
  }
  const double startedAt = monotonicSeconds();
  if (parsed.op == "stats") {
    // The service's own observability: never cached, never shed — an
    // operator must be able to see the shedding counters while shedding.
    QueryResult result{200, statsJson(nowSeconds), false, 0.0};
    finish(cls, false, monotonicSeconds() - startedAt);
    return result;
  }

  std::shared_ptr<const StoreSnapshot> snap;
  CacheDomain domain = CacheDomain::kData;
  std::uint64_t generation = 0;
  if (parsed.op == "series") {
    // The key set alone decides a series answer: it stays cached while
    // ingest only changes data, and a hit needs no snapshot refresh.
    domain = CacheDomain::kMembership;
    generation = daemon_.store().membershipGeneration();
  } else if (parsed.op == "export" && daemon_.engine() != nullptr) {
    // Exports read the persistence engine (deep history), so their cache
    // entries invalidate on engine appends, not store mutations.
    domain = CacheDomain::kEngine;
    generation = daemon_.engine()->dataGeneration();
  } else {
    snap = snapshot();
    generation = snap->generation();
  }
  std::string cacheKey = parsed.key + "#g" + std::to_string(generation);

  if (options_.cacheMaxEntries > 0) {
    std::string hit = cacheLookup(cacheKey);
    if (!hit.empty()) {
      // Cache hits bypass admission: they cost no snapshot or store
      // work, so serving them cannot starve ingest even under overload.
      cacheHits_.fetch_add(1, std::memory_order_relaxed);
      finish(cls, true, monotonicSeconds() - startedAt);
      return {200, std::move(hit), true, 0.0};
    }
  }

  double retryAfter = 0.0;
  if (!admit(cls, &retryAfter)) {
    if (cls == QueryClass::kBulk) {
      shedBulk_.fetch_add(1, std::memory_order_relaxed);
    } else {
      shedLive_.fetch_add(1, std::memory_order_relaxed);
    }
    ctrShed_->add();
    return {429, errorBody("overloaded: retry after " +
                           fmtDouble(retryAfter) + "s"),
            false, retryAfter};
  }
  cacheMisses_.fetch_add(1, std::memory_order_relaxed);
  if (snap == nullptr) {
    snap = snapshot();
    if (domain == CacheDomain::kMembership &&
        snap->membershipGeneration() != generation) {
      // Series came or went since the lookup: key the answer to the
      // membership it shows.
      generation = snap->membershipGeneration();
      cacheKey = parsed.key + "#g" + std::to_string(generation);
    }
  }

  std::string body;
  if (parsed.op == "series") {
    body = runSeries(*snap);
  } else if (parsed.op == "snapshot") {
    body = runSnapshotOp(*snap, parsed);
  } else if (parsed.op == "range") {
    body = runRange(*snap, parsed);
  } else if (parsed.op == "window") {
    body = runWindow(*snap, parsed);
  } else {  // export
    body = runExport(*snap, parsed);
  }
  if (options_.cacheMaxEntries > 0) {
    cacheInsert(cacheKey, domain, generation, body);
  }
  finish(cls, false, monotonicSeconds() - startedAt);
  return {200, std::move(body), false, 0.0};
}

bool QueryService::admit(QueryClass cls, double* retryAfter) {
  const PressureLevel pressure = daemon_.pressure();
  double scale = 1.0;
  if (pressure == PressureLevel::kElevated) scale = 2.0;
  if (pressure == PressureLevel::kOverloaded) scale = 5.0;
  *retryAfter = options_.retryAfterSeconds * scale;
  std::lock_guard<std::mutex> lock(admitMutex_);
  if (queriesThisPoll_ >= options_.maxQueriesPerPoll) {
    return false;
  }
  if (cls == QueryClass::kBulk) {
    // Bulk exports get a small slice of the budget, and none at all
    // while ingest is under pressure — live dashboards and the write
    // path always win.
    if (pressure != PressureLevel::kOk ||
        bulkThisPoll_ >= options_.bulkQueriesPerPoll) {
      return false;
    }
    ++bulkThisPoll_;
  }
  ++queriesThisPoll_;
  return true;
}

void QueryService::finish(QueryClass cls, bool cacheHit,
                          double elapsedSeconds) {
  served_.fetch_add(1, std::memory_order_relaxed);
  ctrServed_->add();
  if (cacheHit) {
    ctrCacheHits_->add();
  }
  if (cls == QueryClass::kBulk) {
    servedBulk_.fetch_add(1, std::memory_order_relaxed);
    latBulk_->observe(elapsedSeconds);
  } else {
    servedLive_.fetch_add(1, std::memory_order_relaxed);
    latLive_->observe(elapsedSeconds);
  }
}

// --- op bodies -------------------------------------------------------------

std::string QueryService::runSeries(const StoreSnapshot& snap) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("membership_generation", snap.membershipGeneration())
      .key("series")
      .beginArray();
  for (const SeriesSnapshot& series : snap.series()) {
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("metric", series.key.metric)
        .endObject();
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runSnapshotOp(const StoreSnapshot& snap,
                                        const Parsed& parsed) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .key("series")
      .beginArray();
  auto writeSeries = [&](const SeriesSnapshot& series) {
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("metric", series.key.metric);
    if (const auto fine = snap.latest(series.key, Resolution::kFine)) {
      w.key("fine");
      writeWindowRow(w, *fine);
    }
    if (const auto coarse = snap.latest(series.key, Resolution::kCoarse)) {
      w.key("coarse");
      writeWindowRow(w, *coarse);
    }
    w.endObject();
  };
  if (parsed.hasJob && parsed.hasRank && !parsed.metric.empty()) {
    // One fully named series (the marker and per-rank panels): a binary
    // search instead of a scan over every series.
    if (const SeriesSnapshot* series =
            snap.find({parsed.job, parsed.rank, parsed.metric})) {
      writeSeries(*series);
    }
  } else {
    for (const SeriesSnapshot& series : snap.series()) {
      if (parsed.hasJob && series.key.job != parsed.job) continue;
      if (parsed.hasRank && series.key.rank != parsed.rank) continue;
      if (!parsed.metric.empty() && series.key.metric != parsed.metric) {
        continue;
      }
      writeSeries(series);
    }
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runRange(const StoreSnapshot& snap,
                                   const Parsed& parsed) {
  SeriesKey key;
  key.job = parsed.job;
  key.rank = parsed.rank;
  key.metric = parsed.metric;
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .field("job", key.job)
      .field("rank", static_cast<std::int64_t>(key.rank))
      .field("metric", key.metric)
      .field("resolution",
             parsed.resolution == Resolution::kCoarse ? "coarse" : "fine")
      .key("windows")
      .beginArray();
  for (const WindowRollup& row :
       snap.range(key, parsed.t0, parsed.t1, parsed.resolution)) {
    writeWindowRow(w, row);
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runWindow(const StoreSnapshot& snap,
                                    const Parsed& parsed) {
  // Anchor the trailing window at the newest data time either plane has
  // seen: the ladder's high-water mark for directly ingested records,
  // or the snapshot's newest fine window for forwarded-only stores.
  double anchor;
  {
    std::lock_guard<std::mutex> lock(ladderMutex_);
    anchor = ladderMaxTimeSeconds_;
  }
  // One pass over the snapshot: the metric's series, and their anchor.
  std::vector<const SeriesSnapshot*> matched;
  for (const SeriesSnapshot& series : snap.series()) {
    if (series.key.metric != parsed.metric) continue;
    if (!series.fine.empty()) {
      anchor = std::max(
          anchor, (static_cast<double>(series.fine.newestIndex()) + 1.0) *
                      snap.fineWindowSeconds());
    }
    if (parsed.hasJob && series.key.job != parsed.job) continue;
    if (parsed.hasRank && series.key.rank != parsed.rank) continue;
    matched.push_back(&series);
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .field("metric", parsed.metric)
      .field("window_s", parsed.windowSeconds)
      .field("anchor_s", anchor)
      .key("series")
      .beginArray();
  for (const SeriesSnapshot* matchedSeries : matched) {
    const SeriesSnapshot& series = *matchedSeries;
    LadderWindow window =
        ladderRead(series.key, parsed.windowSeconds, anchor);
    if (!window.fromLadder) {
      // Forwarded series (ingestWindow bypasses the per-record hook) or
      // a window size outside the configured ladder: fold the trailing
      // fine windows from the snapshot instead.  Counted — a high
      // fallback rate says the ladder config misses a dashboard window.
      ladderFallbacks_.fetch_add(1, std::memory_order_relaxed);
      for (const WindowRollup& row :
           snap.range(series, anchor - parsed.windowSeconds, anchor,
                      Resolution::kFine)) {
        window.rollup.combine(row.rollup);
        ++window.buckets;
      }
    }
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("min", window.rollup.min)
        .field("avg", window.rollup.avg())
        .field("max", window.rollup.max)
        .field("count", window.rollup.count)
        .field("buckets", std::uint64_t{window.buckets})
        .field("from_ladder", window.fromLadder)
        .endObject();
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runExport(const StoreSnapshot& snap,
                                    const Parsed& parsed) {
  const tsdb::Engine* engine = daemon_.engine();
  // A threaded TsdbWriter appends to the engine from its worker thread;
  // the engine is single-owner, so reads take the writer's engine lock.
  const std::unique_lock<std::mutex> engineLock = daemon_.lockEngine();
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("source", engine != nullptr ? "engine" : "snapshot")
      .field("resolution",
             parsed.resolution == Resolution::kCoarse ? "coarse" : "fine")
      .key("series")
      .beginArray();
  auto writeSeries = [&](const SeriesKey& key,
                         const std::vector<WindowRollup>& rows) {
    w.beginObject()
        .field("job", key.job)
        .field("rank", static_cast<std::int64_t>(key.rank))
        .field("metric", key.metric)
        .key("windows")
        .beginArray();
    for (const WindowRollup& row : rows) {
      writeWindowRow(w, row);
    }
    w.endArray().endObject();
  };
  if (engine != nullptr) {
    // Deep history: the engine is a strict superset of the store's
    // bounded retention (everything ingested was appended).
    for (const SeriesKey& key : engine->seriesKeys()) {
      if (parsed.hasJob && key.job != parsed.job) continue;
      if (parsed.hasRank && key.rank != parsed.rank) continue;
      if (!parsed.metric.empty() && key.metric != parsed.metric) continue;
      writeSeries(key,
                  engine->range(key, parsed.t0, parsed.t1, parsed.resolution));
    }
  } else {
    for (const SeriesSnapshot& series : snap.series()) {
      if (parsed.hasJob && series.key.job != parsed.job) continue;
      if (parsed.hasRank && series.key.rank != parsed.rank) continue;
      if (!parsed.metric.empty() && series.key.metric != parsed.metric) {
        continue;
      }
      writeSeries(series.key, snap.range(series.key, parsed.t0, parsed.t1,
                                         parsed.resolution));
    }
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

QueryService::LadderWindow QueryService::ladderRead(const SeriesKey& key,
                                                    double windowSeconds,
                                                    double anchor) {
  LadderWindow out;
  std::size_t ringIndex = options_.ladderWindowsSeconds.size();
  for (std::size_t i = 0; i < options_.ladderWindowsSeconds.size(); ++i) {
    if (options_.ladderWindowsSeconds[i] == windowSeconds) {
      ringIndex = i;
      break;
    }
  }
  if (ringIndex == options_.ladderWindowsSeconds.size()) {
    return out;  // window size not on the ladder
  }
  std::lock_guard<std::mutex> lock(ladderMutex_);
  const auto it = ladder_.find({key.job, key.rank, names::intern(key.metric)});
  if (it == ladder_.end()) {
    return out;  // series never directly ingested (forwarded)
  }
  const LadderRing& ring = it->second.rings[ringIndex];
  const double sub =
      windowSeconds / static_cast<double>(options_.ladderBuckets);
  for (std::size_t slot = 0; slot < ring.slots.size(); ++slot) {
    const std::int64_t idx = ring.slotIndex[slot];
    if (idx < 0) continue;
    const double slotStart = static_cast<double>(idx) * sub;
    // Keep sub-windows intersecting the trailing [anchor - w, anchor].
    if (slotStart + sub <= anchor - windowSeconds || slotStart > anchor) {
      continue;
    }
    out.rollup.combine(ring.slots[slot]);
    ++out.buckets;
  }
  out.fromLadder = true;
  return out;
}

// --- result cache ----------------------------------------------------------

std::string QueryService::cacheLookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  const auto it = cacheIndex_.find(key);
  if (it == cacheIndex_.end()) {
    return "";
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->body;
}

void QueryService::cacheInsert(const std::string& key, CacheDomain domain,
                               std::uint64_t generation,
                               const std::string& body) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  if (const auto it = cacheIndex_.find(key); it != cacheIndex_.end()) {
    // Another thread computed the same miss concurrently; keep the
    // existing entry (same generation -> bit-identical body anyway).
    return;
  }
  lru_.push_front(CacheEntry{key, domain, generation, body});
  cacheIndex_[key] = lru_.begin();
  cacheBytes_ += key.size() + body.size();
  while (!lru_.empty() && (lru_.size() > options_.cacheMaxEntries ||
                           cacheBytes_ > options_.cacheMaxBytes)) {
    const CacheEntry& victim = lru_.back();
    cacheBytes_ -= victim.key.size() + victim.body.size();
    cacheIndex_.erase(victim.key);
    lru_.pop_back();
    cacheEvictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryService::cacheSweep(const StoreSnapshot& current) {
  const tsdb::Engine* engine = daemon_.engine();
  const std::uint64_t engineGeneration =
      engine != nullptr ? engine->dataGeneration() : 0;
  std::lock_guard<std::mutex> lock(cacheMutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    std::uint64_t now = current.generation();
    if (it->domain == CacheDomain::kMembership) {
      now = current.membershipGeneration();
    } else if (it->domain == CacheDomain::kEngine) {
      now = engineGeneration;
    }
    // Older, not different: a concurrent refresh may already have
    // cached bodies at a newer generation than `current`.
    if (it->generation < now) {
      cacheBytes_ -= it->key.size() + it->body.size();
      cacheIndex_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace zerosum::aggregator
