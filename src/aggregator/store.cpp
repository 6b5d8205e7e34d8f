#include "aggregator/store.hpp"

#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"

namespace zerosum::aggregator {

namespace {

constexpr std::int64_t kSlotMask = WindowChunk::kWindows - 1;

std::int64_t chunkNumber(std::int64_t index) {
  return index >> WindowChunk::kShift;  // floor division, negatives too
}

int slotOf(std::int64_t index) { return static_cast<int>(index & kSlotMask); }

/// Index of the window holding time `t`, clamped to the int64 range so
/// an open-ended bound (t1 = 1e300) or NaN cannot overflow the cast.
std::int64_t windowIndexOf(double t, double width) {
  const double w = std::floor(t / width);
  if (!(w > -9.2e18)) {
    return std::numeric_limits<std::int64_t>::min();
  }
  if (w >= 9.2e18) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return static_cast<std::int64_t>(w);
}

/// Oldest window index kept when `newest` is the newest, saturating.
std::int64_t oldestKept(std::int64_t newest, int retention) {
  const std::int64_t back = retention - 1;
  return newest < std::numeric_limits<std::int64_t>::min() + back
             ? std::numeric_limits<std::int64_t>::min()
             : newest - back;
}

/// True when `index` lies beyond the retention horizon of `newest`
/// (computed in unsigned arithmetic: the difference cannot overflow).
bool tooOld(std::int64_t index, std::int64_t newest, int retention) {
  return index < newest && static_cast<std::uint64_t>(newest) -
                                   static_cast<std::uint64_t>(index) >=
                               static_cast<std::uint64_t>(retention);
}

const WindowPlane& planeOf(const SeriesSnapshot& version,
                           Resolution resolution) {
  return resolution == Resolution::kFine ? version.fine : version.coarse;
}

WindowPlane& planeOf(SeriesSnapshot& version, Resolution resolution) {
  return resolution == Resolution::kFine ? version.fine : version.coarse;
}

std::optional<WindowRollup> latestOf(const WindowPlane& windows,
                                     double width) {
  if (windows.empty()) {
    return std::nullopt;
  }
  WindowRollup out;
  out.windowStartSeconds = static_cast<double>(windows.newestIndex()) * width;
  out.windowSeconds = width;
  out.rollup = *windows.find(windows.newestIndex());
  return out;
}

std::vector<WindowRollup> rangeOf(const WindowPlane& windows, double t0,
                                  double t1, double width) {
  std::vector<WindowRollup> out;
  if (t1 < t0) {
    return out;
  }
  const std::int64_t last = windowIndexOf(t1, width);
  for (auto it = windows.lowerBound(windowIndexOf(t0, width));
       it != windows.end(); ++it) {
    const auto [index, rollup] = *it;
    if (index > last) {
      break;
    }
    WindowRollup row;
    row.windowStartSeconds = static_cast<double>(index) * width;
    row.windowSeconds = width;
    row.rollup = rollup;
    out.push_back(row);
  }
  return out;
}

}  // namespace

// --- WindowPlane -------------------------------------------------------------

WindowPlane::const_iterator::const_iterator(const WindowPlane* plane,
                                            std::int64_t from)
    : plane_(plane) {
  at_ = plane_->seek(from, index_);
  if (at_ == nullptr) {
    index_ = 0;  // end(): one canonical position
  }
}

WindowPlane::const_iterator& WindowPlane::const_iterator::operator++() {
  if (index_ == plane_->newest_) {
    at_ = nullptr;  // the head is the last window
    index_ = 0;
  } else {
    at_ = plane_->seek(index_ + 1, index_);
  }
  return *this;
}

WindowPlane::const_iterator WindowPlane::const_iterator::operator++(int) {
  const_iterator old = *this;
  ++*this;
  return old;
}

const Rollup* WindowPlane::seek(std::int64_t from, std::int64_t& index) const {
  from = std::max(from, oldest_);
  if (size_ == 0 || from > newest_) {
    return nullptr;
  }
  if (table_ != nullptr && from < newest_) {
    const auto& chunks = table_->chunks;
    const std::int64_t first = table_->firstChunk;
    std::size_t at = 0;
    if (chunkNumber(from) > first) {
      at = static_cast<std::size_t>(chunkNumber(from) - first);
    }
    for (; at < chunks.size(); ++at) {
      const std::int64_t base =
          (first + static_cast<std::int64_t>(at)) * WindowChunk::kWindows;
      if (base >= newest_) {
        break;
      }
      if (chunks[at] == nullptr) {
        continue;
      }
      for (int slot = from > base ? slotOf(from) : 0;
           slot < WindowChunk::kWindows && base + slot < newest_; ++slot) {
        const Rollup& rollup = chunks[at]->slots[static_cast<std::size_t>(slot)];
        if (rollup.count != 0) {
          index = base + slot;
          return &rollup;
        }
      }
    }
  }
  index = newest_;
  return &head_;
}

WindowPlane::const_iterator WindowPlane::begin() const {
  return const_iterator(this, oldest_);
}

WindowPlane::const_iterator WindowPlane::end() const {
  const_iterator out;
  out.plane_ = this;
  return out;
}

WindowPlane::const_iterator WindowPlane::lowerBound(std::int64_t index) const {
  return const_iterator(this, index);
}

const WindowChunk* WindowPlane::chunk(std::int64_t index) const {
  if (table_ == nullptr || size_ == 0 || index < oldest_ ||
      index >= newest_) {
    return nullptr;
  }
  const std::int64_t c = chunkNumber(index);
  if (c < table_->firstChunk ||
      static_cast<std::uint64_t>(c - table_->firstChunk) >=
          table_->chunks.size()) {
    return nullptr;
  }
  return table_->chunks[static_cast<std::size_t>(c - table_->firstChunk)]
      .get();
}

const Rollup* WindowPlane::find(std::int64_t index) const {
  if (size_ != 0 && index == newest_) {
    return &head_;
  }
  const WindowChunk* c = chunk(index);
  if (c == nullptr) {
    return nullptr;
  }
  const Rollup& slot = c->slots[static_cast<std::size_t>(slotOf(index))];
  return slot.count != 0 ? &slot : nullptr;
}

// --- RollupStore -------------------------------------------------------------

RollupStore::RollupStore(StoreOptions options) : options_(options) {
  if (options_.fineWindowSeconds <= 0.0) {
    throw ConfigError("RollupStore fine window must be positive");
  }
  if (options_.coarseFactor < 2) {
    throw ConfigError("RollupStore coarse factor must be >= 2");
  }
  if (options_.fineRetentionWindows < 1 ||
      options_.coarseRetentionWindows < 1) {
    throw ConfigError("RollupStore retention must be >= 1 window");
  }
  if (options_.shards < 1) {
    throw ConfigError("RollupStore needs >= 1 shard");
  }
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

RollupStore::Shard& RollupStore::shardOf(const SeriesKey& key) {
  const std::size_t h = std::hash<std::string>{}(key.metric) ^
                        (std::hash<int>{}(key.rank) << 1U) ^
                        (std::hash<std::string>{}(key.job) << 2U);
  return *shards_[h % shards_.size()];
}

const RollupStore::Shard& RollupStore::shardOf(const SeriesKey& key) const {
  return const_cast<RollupStore*>(this)->shardOf(key);
}

double RollupStore::windowSeconds(Resolution resolution) const {
  return resolution == Resolution::kFine
             ? options_.fineWindowSeconds
             : options_.fineWindowSeconds * options_.coarseFactor;
}

int RollupStore::retention(Resolution resolution) const {
  return resolution == Resolution::kFine ? options_.fineRetentionWindows
                                         : options_.coarseRetentionWindows;
}

RollupStore::Series& RollupStore::seriesLocked(Shard& shard,
                                               const SeriesKey& key) {
  auto [it, inserted] = shard.series.try_emplace(key);
  if (inserted) {
    it->second.version = std::make_shared<SeriesSnapshot>(
        std::make_shared<const SeriesKey>(key));
    it->second.epoch = publishEpoch_;
    membershipGeneration_.fetch_add(1, std::memory_order_release);
  }
  return it->second;
}

SeriesSnapshot& RollupStore::writableVersion(Series& series) const {
  if (series.epoch != publishEpoch_) {
    // Published: clone the version (key + chunk pointers, no windows).
    series.version = std::make_shared<SeriesSnapshot>(*series.version);
    series.epoch = publishEpoch_;
    if (series.slot != kNoSlot) {
      index_[series.slot] = series.version;  // this shard's slot alone
    }
  }
  return *series.version;
}

Rollup& RollupStore::writableSlot(WindowPlane& plane,
                                  std::int64_t index) const {
  auto& table = plane.table_;
  if (table == nullptr) {
    table = std::make_shared<WindowPlane::Table>();
    table->firstChunk = chunkNumber(index);
    table->epoch = publishEpoch_;
  } else if (table->epoch != publishEpoch_) {
    // Published: clone the table (chunk pointers, no windows).
    table = std::make_shared<WindowPlane::Table>(*table);
    table->epoch = publishEpoch_;
  }
  // `index` lies inside the retention span and hideBelow drops chunks
  // that fall out of it, so the table never grows past ~retention /
  // kWindows + 2 entries.
  auto& chunks = table->chunks;
  const std::int64_t c = chunkNumber(index);
  if (chunks.empty()) {
    table->firstChunk = c;
    chunks.emplace_back();
  } else if (c < table->firstChunk) {
    chunks.insert(chunks.begin(),
                  static_cast<std::size_t>(table->firstChunk - c), nullptr);
    table->firstChunk = c;
  } else if (static_cast<std::uint64_t>(c - table->firstChunk) >=
             chunks.size()) {
    chunks.resize(static_cast<std::size_t>(c - table->firstChunk) + 1);
  }
  auto& chunk = chunks[static_cast<std::size_t>(c - table->firstChunk)];
  if (chunk == nullptr) {
    chunk = std::make_shared<WindowChunk>();
    chunk->epoch = publishEpoch_;
  } else if (chunk->epoch != publishEpoch_) {
    chunk = std::make_shared<WindowChunk>(*chunk);  // published: clone
    chunk->epoch = publishEpoch_;
  }
  return chunk->slots[static_cast<std::size_t>(slotOf(index))];
}

void RollupStore::hideBelow(WindowPlane& plane, std::int64_t oldestKept,
                            std::uint64_t& evicted) const {
  if (oldestKept <= plane.oldest_) {
    return;
  }
  if (plane.table_ != nullptr) {
    // Count the chunk windows in [oldest_, min(oldestKept, newest_)).
    const std::int64_t stop = std::min(oldestKept, plane.newest_);
    const auto& chunks = plane.table_->chunks;
    const std::int64_t first = plane.table_->firstChunk;
    std::size_t drop = 0;
    for (std::size_t at = 0; at < chunks.size(); ++at) {
      const std::int64_t base =
          (first + static_cast<std::int64_t>(at)) * WindowChunk::kWindows;
      if (base >= stop) {
        break;
      }
      if (chunks[at] != nullptr) {
        for (int slot = 0; slot < WindowChunk::kWindows; ++slot) {
          const std::int64_t index = base + slot;
          if (index >= plane.oldest_ && index < stop &&
              chunks[at]->slots[static_cast<std::size_t>(slot)].count != 0) {
            ++evicted;
            --plane.size_;
          }
        }
      }
      if (base + (WindowChunk::kWindows - 1) < oldestKept) {
        drop = at + 1;  // wholly below the horizon
      }
    }
    if (drop == chunks.size()) {
      plane.table_.reset();
    } else if (drop > 0) {
      // Dropping whole chunks rewrites only the table.
      if (plane.table_->epoch != publishEpoch_) {
        plane.table_ = std::make_shared<WindowPlane::Table>(*plane.table_);
        plane.table_->epoch = publishEpoch_;
      }
      auto& mine = plane.table_->chunks;
      mine.erase(mine.begin(), mine.begin() + static_cast<std::ptrdiff_t>(drop));
      plane.table_->firstChunk += static_cast<std::int64_t>(drop);
    }
  }
  plane.oldest_ = oldestKept;
}

void RollupStore::trimBelow(WindowPlane& plane, std::int64_t oldestKept,
                            std::uint64_t& evicted) const {
  if (plane.size_ == 0 || oldestKept <= plane.oldest_) {
    return;
  }
  if (plane.newest_ < oldestKept) {
    evicted += plane.size_;  // the head too: nothing survives
    plane.size_ = 0;
    plane.table_.reset();
    plane.oldest_ = oldestKept;
    return;
  }
  hideBelow(plane, oldestKept, evicted);
}

Rollup* RollupStore::admitWindow(WindowPlane& plane, std::int64_t index,
                                 int retention,
                                 std::uint64_t& evicted) const {
  if (plane.size_ == 0) {
    plane.table_.reset();
    plane.head_ = Rollup{};
    plane.newest_ = index;
    plane.oldest_ = oldestKept(index, retention);
    plane.size_ = 1;
    return &plane.head_;
  }
  if (tooOld(index, plane.newest_, retention)) {
    return nullptr;  // beyond the retention horizon: too old to matter
  }
  if (index == plane.newest_) {
    return &plane.head_;
  }
  if (index < plane.newest_) {
    Rollup& slot = writableSlot(plane, index);
    if (slot.count == 0) {
      ++plane.size_;
    }
    return &slot;
  }
  // A new newest window: the head moves into its chunk, and the windows
  // the new newest pushes off the horizon are evicted (whole chunks at a
  // time are dropped; amortized O(1) per ingest).
  const std::int64_t keep = oldestKept(index, retention);
  if (plane.newest_ >= keep) {
    writableSlot(plane, plane.newest_) = plane.head_;
    hideBelow(plane, keep, evicted);
  } else {
    trimBelow(plane, keep, evicted);
  }
  plane.head_ = Rollup{};
  plane.newest_ = index;
  ++plane.size_;
  return &plane.head_;
}

void RollupStore::markDirtyLocked(Series& series, Resolution resolution,
                                  std::int64_t index, Shard& shard) {
  if (!trackDirty_.load(std::memory_order_relaxed)) {
    return;
  }
  auto& dirty = resolution == Resolution::kFine ? series.dirtyFine
                                                : series.dirtyCoarse;
  if (dirty.insert(index).second) {
    ++shard.dirty;
  }
}

void RollupStore::mergeLocked(Series& series, double timeSeconds,
                              double value, Shard& shard) {
  dataGeneration_.fetch_add(1, std::memory_order_release);
  SeriesSnapshot& version = writableVersion(series);
  const std::int64_t fineIndex =
      windowIndexOf(timeSeconds, options_.fineWindowSeconds);
  if (Rollup* slot = admitWindow(version.fine, fineIndex,
                                 options_.fineRetentionWindows,
                                 shard.evicted)) {
    slot->merge(value);
  }
  markDirtyLocked(series, Resolution::kFine, fineIndex, shard);
  const std::int64_t coarseIndex =
      fineIndex >= 0 ? fineIndex / options_.coarseFactor
                     : (fineIndex - options_.coarseFactor + 1) /
                           options_.coarseFactor;
  if (Rollup* slot = admitWindow(version.coarse, coarseIndex,
                                 options_.coarseRetentionWindows,
                                 shard.evicted)) {
    slot->merge(value);
  }
  markDirtyLocked(series, Resolution::kCoarse, coarseIndex, shard);
  ++shard.ingested;
}

void RollupStore::ingest(const SeriesKey& key, double timeSeconds,
                         double value) {
  if (!std::isfinite(timeSeconds) || !std::isfinite(value) ||
      timeSeconds < 0.0) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  mergeLocked(seriesLocked(shard, key), timeSeconds, value, shard);
}

void RollupStore::ingest(const SeriesKey& key, SeriesRef& ref,
                         double timeSeconds, double value) {
  if (!std::isfinite(timeSeconds) || !std::isfinite(value) ||
      timeSeconds < 0.0) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  if (ref.shard == nullptr) {
    ref.shard = &shardOf(key);  // a key's shard never changes
  }
  std::lock_guard<std::mutex> lock(ref.shard->mutex);
  // Revalidate under the shard lock: evictSource bumps the generation
  // before erasing, so a stale ref re-resolves rather than following a
  // freed node.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (ref.series == nullptr || ref.generation != gen) {
    ref.series = &seriesLocked(*ref.shard, key);
    ref.generation = gen;
  }
  mergeLocked(*ref.series, timeSeconds, value, *ref.shard);
}

std::size_t RollupStore::evictSource(const std::string& job, int rank) {
  std::size_t dropped = 0;
  // Invalidate outstanding SeriesRefs before any node is freed.
  generation_.fetch_add(1, std::memory_order_release);
  dataGeneration_.fetch_add(1, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->series.begin(); it != shard->series.end();) {
      if (it->first.job == job && it->first.rank == rank) {
        const SeriesSnapshot& version = *it->second.version;
        shard->evicted += version.fine.size() + version.coarse.size();
        shard->dirty -=
            it->second.dirtyFine.size() + it->second.dirtyCoarse.size();
        it = shard->series.erase(it);
        // Under the lock that guards the erase: snapshot()'s series
        // index must never outlive the node it points to.
        membershipGeneration_.fetch_add(1, std::memory_order_release);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

bool RollupStore::ingestWindow(const SeriesKey& key, Resolution resolution,
                               std::int64_t windowIndex,
                               const Rollup& rollup) {
  if (rollup.count == 0 || !std::isfinite(rollup.min) ||
      !std::isfinite(rollup.max) || !std::isfinite(rollup.sum)) {
    return false;  // hostile or corrupt input: ignore, never throw
  }
  Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Series& series = seriesLocked(shard, key);
  const int retain = retention(resolution);
  // Decide on the shared version first: a rejected window copies nothing.
  const WindowPlane& current = planeOf(*series.version, resolution);
  if (!current.empty() &&
      tooOld(windowIndex, current.newestIndex(), retain)) {
    return false;  // beyond the retention horizon: too old to matter
  }
  if (const Rollup* stored = current.find(windowIndex);
      stored != nullptr && rollup.count <= stored->count) {
    return false;  // not newer: a retransmit or a stale duplicate
  }
  // Cumulative snapshots are monotone in count: higher count = newer.
  // Replacing (never combining) keeps retransmits idempotent.  The
  // horizon check above means the window is always admitted.
  WindowPlane& windows = planeOf(writableVersion(series), resolution);
  *admitWindow(windows, windowIndex, retain, shard.evicted) = rollup;
  markDirtyLocked(series, resolution, windowIndex, shard);
  ++shard.ingested;
  dataGeneration_.fetch_add(1, std::memory_order_release);
  return true;
}

void RollupStore::merge(const RollupStore& other) {
  // Read `other` through a snapshot of its own: a consistent view that
  // holds none of its locks while this store's are taken (no lock
  // ordering between stores), and that other's writers will not touch.
  const StoreSnapshot incoming = other.snapshot();
  for (const SeriesSnapshot& theirs : incoming.series()) {
    Shard& shard = shardOf(theirs.key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    SeriesSnapshot& mine = writableVersion(seriesLocked(shard, theirs.key));
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      const WindowPlane& source = planeOf(theirs, resolution);
      if (source.empty()) {
        continue;
      }
      WindowPlane& target = planeOf(mine, resolution);
      const int retain = retention(resolution);
      const std::int64_t newest =
          target.empty() ? source.newestIndex()
                         : std::max(target.newestIndex(), source.newestIndex());
      const std::int64_t horizon = oldestKept(newest, retain);
      trimBelow(target, horizon, shard.evicted);
      for (const auto& [index, rollup] : source) {
        if (index < horizon) {
          ++shard.evicted;
          continue;
        }
        admitWindow(target, index, retain, shard.evicted)->combine(rollup);
      }
    }
  }
  dataGeneration_.fetch_add(1, std::memory_order_release);
}

StoreSnapshot RollupStore::snapshot() const {
  StoreSnapshot out;
  out.fineWindowSeconds_ = options_.fineWindowSeconds;
  out.coarseWindowSeconds_ =
      options_.fineWindowSeconds * options_.coarseFactor;
  std::lock_guard<std::mutex> indexLock(indexMutex_);
  // All shard locks, in index order (writers only ever hold one shard
  // lock, so this cannot deadlock against ingest): the pointers and the
  // generation reading describe exactly the same instant.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  out.membershipGeneration_ =
      membershipGeneration_.load(std::memory_order_acquire);
  if (indexMembership_ != out.membershipGeneration_) {
    std::vector<Series*> order;
    for (const auto& shard : shards_) {
      for (auto& [key, series] : shard->series) {
        order.push_back(&series);
      }
    }
    std::sort(order.begin(), order.end(), [](const Series* a, const Series* b) {
      return a->version->key < b->version->key;
    });
    index_.clear();
    index_.reserve(order.size());
    for (Series* series : order) {
      series->slot = index_.size();
      index_.push_back(series->version);
    }
    indexMembership_ = out.membershipGeneration_;
  }
  out.series_ = index_;
  // Everything just captured is now shared: the next write to any of it
  // clones first (writableVersion / writableSlot).
  ++publishEpoch_;
  return out;
}

const SeriesSnapshot* StoreSnapshot::find(const SeriesKey& key) const {
  const auto it = std::lower_bound(
      series_.begin(), series_.end(), key,
      [](const Version& s, const SeriesKey& k) { return s->key < k; });
  if (it == series_.end() || !((*it)->key == key)) {
    return nullptr;
  }
  return it->get();
}

std::optional<WindowRollup> StoreSnapshot::latest(
    const SeriesKey& key, Resolution resolution) const {
  const SeriesSnapshot* series = find(key);
  if (series == nullptr) {
    return std::nullopt;
  }
  return latestOf(planeOf(*series, resolution),
                  resolution == Resolution::kFine ? fineWindowSeconds_
                                                  : coarseWindowSeconds_);
}

std::vector<WindowRollup> StoreSnapshot::range(const SeriesKey& key, double t0,
                                               double t1,
                                               Resolution resolution) const {
  const SeriesSnapshot* series = find(key);
  if (series == nullptr) {
    return {};
  }
  return range(*series, t0, t1, resolution);
}

std::vector<WindowRollup> StoreSnapshot::range(const SeriesSnapshot& series,
                                               double t0, double t1,
                                               Resolution resolution) const {
  return rangeOf(planeOf(series, resolution), t0, t1,
                 resolution == Resolution::kFine ? fineWindowSeconds_
                                                 : coarseWindowSeconds_);
}

void RollupStore::enableDirtyTracking() {
  trackDirty_.store(true, std::memory_order_relaxed);
}

std::size_t RollupStore::drainDirty(std::vector<DirtyWindow>& out,
                                    std::size_t maxWindows) {
  std::size_t appended = 0;
  for (auto& shard : shards_) {
    if (appended >= maxWindows) {
      break;
    }
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->dirty == 0) {
      continue;
    }
    for (auto& [key, series] : shard->series) {
      const std::pair<Resolution, std::set<std::int64_t>*> planes[] = {
          {Resolution::kFine, &series.dirtyFine},
          {Resolution::kCoarse, &series.dirtyCoarse}};
      for (const auto& [resolution, dirty] : planes) {
        const WindowPlane& windows = planeOf(*series.version, resolution);
        while (!dirty->empty() && appended < maxWindows) {
          const std::int64_t index = *dirty->begin();
          dirty->erase(dirty->begin());
          --shard->dirty;
          const Rollup* rollup = windows.find(index);
          if (rollup == nullptr) {
            continue;  // evicted since it was marked
          }
          DirtyWindow w;
          w.key = key;
          w.resolution = resolution;
          w.windowIndex = index;
          w.rollup = *rollup;
          out.push_back(std::move(w));
          ++appended;
        }
        if (appended >= maxWindows) {
          break;
        }
      }
      if (appended >= maxWindows) {
        break;
      }
    }
  }
  return appended;
}

void RollupStore::markAllDirty() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [key, series] : shard->series) {
      for (const auto& [index, rollup] : series.version->fine) {
        if (series.dirtyFine.insert(index).second) {
          ++shard->dirty;
        }
      }
      for (const auto& [index, rollup] : series.version->coarse) {
        if (series.dirtyCoarse.insert(index).second) {
          ++shard->dirty;
        }
      }
    }
  }
}

std::size_t RollupStore::dirtyCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->dirty;
  }
  return total;
}

std::optional<WindowRollup> RollupStore::latest(const SeriesKey& key,
                                                Resolution resolution) const {
  const Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    return std::nullopt;
  }
  return latestOf(planeOf(*it->second.version, resolution),
                  windowSeconds(resolution));
}

std::vector<WindowRollup> RollupStore::range(const SeriesKey& key, double t0,
                                             double t1,
                                             Resolution resolution) const {
  const Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    return {};
  }
  return rangeOf(planeOf(*it->second.version, resolution), t0, t1,
                 windowSeconds(resolution));
}

std::vector<SeriesKey> RollupStore::keys() const {
  std::vector<SeriesKey> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, series] : shard->series) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SeriesKey> RollupStore::keysOf(const std::string& job,
                                           int rank) const {
  std::vector<SeriesKey> out;
  for (const auto& key : keys()) {
    if (key.job == job && key.rank == rank) {
      out.push_back(key);
    }
  }
  return out;
}

std::size_t RollupStore::seriesCount() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    count += shard->series.size();
  }
  return count;
}

std::uint64_t RollupStore::samplesIngested() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->ingested;
  }
  return total;
}

std::uint64_t RollupStore::windowsEvicted() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->evicted;
  }
  return total;
}

}  // namespace zerosum::aggregator
