// RollupStore: the aggregation daemon's time-series state.
//
// Series are keyed by (job, rank, metric) and sharded by key hash so
// concurrent ingest from many connections contends on different locks.
// Each series keeps fixed-window rollups — min/avg/max/count, the paper's
// Listing-2 statistic set — at two resolutions (a fine window and a
// coarse window of `coarseFactor` fine widths), with bounded retention
// per resolution: windows older than the newest minus the retention
// depth are evicted, and out-of-order arrivals inside the retention
// horizon merge into the correct window.  Sources that stop reporting
// are evicted wholesale after `staleSeconds` (deltadb-style history
// truncation: the store answers "now" and "recently", not "ever").
//
// Storage is copy-on-write shared with the snapshots the store publishes
// (DESIGN.md §12): each series is an immutable version holding its
// newest window inline and older windows in fixed-size chunks, a
// snapshot copies one version pointer per series, and a writer clones
// only the version (plus the chunk table and the one chunk it touches,
// for a window below the newest) — and only when a snapshot published
// since could see them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace zerosum::aggregator {

struct StoreOptions {
  double fineWindowSeconds = 1.0;
  /// Coarse window = fine window x this factor.
  int coarseFactor = 10;
  /// Retention depth, in windows, per resolution.
  int fineRetentionWindows = 600;
  int coarseRetentionWindows = 360;
  /// A source is evicted after this long without any frame.
  double staleSeconds = 30.0;
  /// Shard count (power of two); more shards = less ingest contention.
  int shards = 8;
};

/// min/avg/max/count over one window (avg derived from sum/count).
struct Rollup {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void merge(double value) {
    if (count == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    sum += value;
    ++count;
  }

  /// Folds another partial rollup over the same window in (federation
  /// merge path).  Exact for min/max/count; the sum is exact arithmetic
  /// too, but bit-identity with a single sequential store holds only when
  /// the two inputs partition the records by series (then each series'
  /// sum was accumulated in the original ingest order).
  void combine(const Rollup& other) {
    if (other.count == 0) {
      return;
    }
    if (count == 0) {
      *this = other;
      return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
  }
};

struct SeriesKey {
  std::string job;
  int rank = 0;
  std::string metric;

  friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
  friend auto operator<=>(const SeriesKey&, const SeriesKey&) = default;
};

/// One window of one series, as returned by queries.
struct WindowRollup {
  double windowStartSeconds = 0.0;
  double windowSeconds = 0.0;
  Rollup rollup;
};

enum class Resolution : std::uint8_t { kFine, kCoarse };

/// One window flagged as modified since the last drainDirty() — what a
/// federation Forwarder ships upstream.  `rollup` is the window's
/// cumulative snapshot at drain time (see wire.hpp ForwardWindow).
struct DirtyWindow {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::int64_t windowIndex = 0;
  Rollup rollup;
};

/// A run of kWindows consecutive windows of one resolution of one
/// series, starting at a multiple of kWindows.  A slot whose count is 0
/// holds no window.  Shared by the live store and every snapshot that
/// captured it; the store writes one in place only while `epoch` says no
/// snapshot has been published since it was allocated.  Allocated when a
/// window below the head first lands in its run, never ahead of data.
struct WindowChunk {
  static constexpr int kShift = 4;
  static constexpr int kWindows = 1 << kShift;

  std::array<Rollup, kWindows> slots{};
  std::uint64_t epoch = 0;  ///< RollupStore publish epoch at allocation
};

/// The retained windows of one resolution of one series.  The newest
/// window lives inline (the head), so the common write — into the
/// current window — touches no chunk; older windows live in chunks held
/// by a chunk table, which versions share until one writes a chunk.
/// Eviction advances a lower bound (`oldest`) and drops whole chunks, so
/// it never writes a chunk either.  Iterates like a map from window index
/// to rollup, oldest first — `for (const auto& [index, rollup] : plane)`
/// — yielding pairs by value.
class WindowPlane {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<std::int64_t, Rollup>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    [[nodiscard]] value_type operator*() const { return {index_, *at_}; }
    const_iterator& operator++();
    const_iterator operator++(int);
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class WindowPlane;
    /// Positions on the first retained window with index >= `from`.
    const_iterator(const WindowPlane* plane, std::int64_t from);

    const WindowPlane* plane_ = nullptr;
    std::int64_t index_ = 0;
    const Rollup* at_ = nullptr;  ///< null at end()
  };

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const_iterator begin() const;
  [[nodiscard]] const_iterator end() const;
  /// First retained window with index >= `index`.
  [[nodiscard]] const_iterator lowerBound(std::int64_t index) const;
  /// Newest retained window index; meaningful only when !empty().
  [[nodiscard]] std::int64_t newestIndex() const { return newest_; }
  /// The window at `index`, or null when it is not retained.
  [[nodiscard]] const Rollup* find(std::int64_t index) const;
  /// The chunk holding window `index` (null for the head window, or when
  /// no chunk covers it) — lets callers and tests see which storage two
  /// planes share.
  [[nodiscard]] const WindowChunk* chunk(std::int64_t index) const;

 private:
  friend class RollupStore;

  /// Chunk pointers covering the windows below the head, null where a
  /// run holds no window.  Shared like chunks: written in place only
  /// while `epoch` is the store's publish epoch.
  struct Table {
    std::int64_t firstChunk = 0;  ///< chunk number of chunks[0]
    std::vector<std::shared_ptr<WindowChunk>> chunks;
    std::uint64_t epoch = 0;
  };

  /// First retained window at or after `from`: sets `index`, returns the
  /// rollup, or null past the newest.
  const Rollup* seek(std::int64_t from, std::int64_t& index) const;

  std::shared_ptr<Table> table_;  ///< null when no chunk was written
  Rollup head_;                   ///< window `newest_`, when !empty()
  std::int64_t newest_ = 0;
  /// Windows below this are evicted; their slots may linger in a chunk
  /// the plane still holds, and are never read.
  std::int64_t oldest_ = 0;
  std::size_t size_ = 0;  ///< retained windows, head included
};

/// One immutable version of one series' retained windows (both planes).
/// Snapshots hold these by pointer; a version the store has published is
/// never written again.  Every version of a series shares one key, so a
/// clone copies no strings.
struct SeriesSnapshot {
  explicit SeriesSnapshot(std::shared_ptr<const SeriesKey> sharedKey)
      : sharedKey_(std::move(sharedKey)), key(*sharedKey_) {}
  SeriesSnapshot(const SeriesSnapshot& other)
      : sharedKey_(other.sharedKey_),
        key(*sharedKey_),
        fine(other.fine),
        coarse(other.coarse) {}
  SeriesSnapshot& operator=(const SeriesSnapshot&) = delete;

 private:
  std::shared_ptr<const SeriesKey> sharedKey_;  ///< owns what `key` names

 public:
  const SeriesKey& key;
  WindowPlane fine;
  WindowPlane coarse;
};

/// Immutable point-in-time view of the whole store, taken under every
/// shard lock so no concurrent ingest can tear it (DESIGN.md §12).  It
/// holds one version pointer per series, sharing window storage with the
/// store, so taking one costs O(series), not O(retained windows).  The
/// query service hands one of these (behind a shared_ptr) to every
/// reader: a dashboard query runs against a frozen generation no matter
/// how hard ingest is advancing the live store underneath.
class StoreSnapshot {
 public:
  using Version = std::shared_ptr<const SeriesSnapshot>;

  /// The captured series, sorted by (job, rank, metric); iterating yields
  /// `const SeriesSnapshot&`.
  class SeriesList {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = SeriesSnapshot;
      using difference_type = std::ptrdiff_t;
      using pointer = const SeriesSnapshot*;
      using reference = const SeriesSnapshot&;

      const_iterator() = default;
      explicit const_iterator(std::vector<Version>::const_iterator it)
          : it_(it) {}
      reference operator*() const { return **it_; }
      pointer operator->() const { return it_->get(); }
      const_iterator& operator++() {
        ++it_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++it_;
        return old;
      }
      friend bool operator==(const const_iterator&,
                             const const_iterator&) = default;

     private:
      std::vector<Version>::const_iterator it_;
    };

    explicit SeriesList(const std::vector<Version>& versions)
        : versions_(&versions) {}
    [[nodiscard]] const_iterator begin() const {
      return const_iterator(versions_->begin());
    }
    [[nodiscard]] const_iterator end() const {
      return const_iterator(versions_->end());
    }
    [[nodiscard]] std::size_t size() const { return versions_->size(); }

   private:
    const std::vector<Version>* versions_;
  };

  /// The store's data generation at the instant the view was taken.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// The store's membership generation at the same instant: changes
  /// only when a series is added or evicted.
  [[nodiscard]] std::uint64_t membershipGeneration() const {
    return membershipGeneration_;
  }

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;
  /// Same, for a series already in hand (no lookup).
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesSnapshot& series, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;

  /// All captured series, sorted by (job, rank, metric).
  [[nodiscard]] SeriesList series() const { return SeriesList(series_); }
  /// One captured series, or null (binary search).
  [[nodiscard]] const SeriesSnapshot* find(const SeriesKey& key) const;

  [[nodiscard]] std::size_t seriesCount() const { return series_.size(); }
  [[nodiscard]] double fineWindowSeconds() const { return fineWindowSeconds_; }
  [[nodiscard]] double coarseWindowSeconds() const {
    return coarseWindowSeconds_;
  }

 private:
  friend class RollupStore;

  std::uint64_t generation_ = 0;
  std::uint64_t membershipGeneration_ = 0;
  double fineWindowSeconds_ = 1.0;
  double coarseWindowSeconds_ = 10.0;
  std::vector<Version> series_;  ///< sorted by key
};

class RollupStore {
 private:
  struct Series;
  struct Shard;

 public:
  /// A resolved series handle for repeat ingestion.  The shard a key
  /// hashes to never changes, so it is cached once; the series node is
  /// cached until an eviction bumps the store generation, and then
  /// re-resolved lazily.  Callers that ingest the same series every
  /// period (the daemon) keep one ref per series and skip the per-record
  /// key hash and string-compare map walk.  Treat as opaque.
  struct SeriesRef {
    std::uint64_t generation = 0;
    Shard* shard = nullptr;
    Series* series = nullptr;
  };

  explicit RollupStore(StoreOptions options = {});

  /// Merges one observation into both resolutions.
  void ingest(const SeriesKey& key, double timeSeconds, double value);

  /// Same, through a cached handle: resolves `ref` on first use (or
  /// after an eviction invalidated it) and merges without hashing or
  /// comparing the key strings afterwards.
  void ingest(const SeriesKey& key, SeriesRef& ref, double timeSeconds,
              double value);

  /// Removes every series belonging to (job, rank).  Returns the number
  /// of series dropped.
  std::size_t evictSource(const std::string& job, int rank);

  // --- read-side snapshot surface (DESIGN.md §12) --------------------------

  /// Monotone counter bumped by every mutation (ingest, ingestWindow,
  /// evictSource, merge).  Two equal readings bracket an interval in
  /// which no data changed — the query cache's invalidation signal.
  [[nodiscard]] std::uint64_t dataGeneration() const {
    return dataGeneration_.load(std::memory_order_acquire);
  }

  /// Monotone counter bumped when a series is added or evicted.  Two
  /// equal readings bracket an interval in which the key set is fixed.
  [[nodiscard]] std::uint64_t membershipGeneration() const {
    return membershipGeneration_.load(std::memory_order_acquire);
  }

  /// Publishes a point-in-time view under all shard locks: one version
  /// pointer per series in key order (the order is re-sorted only after
  /// membership changed), no window copied.  Publishing marks every
  /// current version and chunk shared, so the next write to each clones
  /// it first.  The snapshot's generation() is read under the same
  /// locks, so it exactly identifies the captured state.
  [[nodiscard]] StoreSnapshot snapshot() const;

  // --- federation surface (DESIGN.md §11) ----------------------------------

  /// Applies one forwarded window snapshot: replaces the stored rollup
  /// when the incoming count is higher (a window's cumulative snapshot is
  /// monotone in count, so "more records seen" means "newer").  Returns
  /// false — a merge conflict, counted by the daemon — when the incoming
  /// snapshot is not newer than what is stored (a retransmit, a stale
  /// duplicate routed through a second parent, or two origins claiming
  /// the same series); the stored value is kept in that case unless the
  /// incoming one is strictly newer.  Respects retention exactly like
  /// ingest(): windows beyond the horizon are ignored.
  bool ingestWindow(const SeriesKey& key, Resolution resolution,
                    std::int64_t windowIndex, const Rollup& rollup);

  /// Folds every window of `other` into this store with
  /// Rollup::combine(), enforcing this store's retention bounds — the
  /// root's path to answering queries over the union of per-shard
  /// stores.  When the two stores partition series (consistent-hash
  /// sharding), the result is bit-identical to one store having ingested
  /// everything.  Windows of `other` beyond this store's horizon count
  /// as evicted.
  void merge(const RollupStore& other);

  /// Turns on dirty-window tracking (off by default: the bookkeeping is
  /// only paid by daemons that host a Forwarder).  Every window touched
  /// by ingest()/ingestWindow() afterwards is queued for drainDirty().
  void enableDirtyTracking();
  [[nodiscard]] bool dirtyTrackingEnabled() const {
    return trackDirty_.load(std::memory_order_relaxed);
  }

  /// Moves up to `maxWindows` dirty windows into `out` (appended), each
  /// with a snapshot of its current cumulative rollup, and clears their
  /// dirty marks.  Windows evicted since they were marked are skipped.
  /// Returns the number appended.  More dirt may remain; callers loop.
  std::size_t drainDirty(std::vector<DirtyWindow>& out,
                         std::size_t maxWindows);

  /// Marks every retained window of every series dirty — the full-resync
  /// path after a forwarder reconnects or its upstream set changes.
  void markAllDirty();

  /// Dirty windows currently queued (approximate under concurrency).
  [[nodiscard]] std::size_t dirtyCount() const;

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;

  /// All series keys, sorted (job, rank, metric).
  [[nodiscard]] std::vector<SeriesKey> keys() const;
  /// Keys restricted to one (job, rank).
  [[nodiscard]] std::vector<SeriesKey> keysOf(const std::string& job,
                                              int rank) const;

  [[nodiscard]] std::size_t seriesCount() const;
  [[nodiscard]] std::uint64_t samplesIngested() const;
  [[nodiscard]] std::uint64_t windowsEvicted() const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }

 private:
  struct Series {
    /// The current version; writable in place only while
    /// `epoch == publishEpoch_` (no snapshot has captured it).
    std::shared_ptr<SeriesSnapshot> version;
    std::uint64_t epoch = 0;
    /// Position in index_, or kNoSlot until the next rebuild.
    std::size_t slot = kNoSlot;
    /// Window indices touched since the last drainDirty() (only
    /// maintained while dirty tracking is on).
    std::set<std::int64_t> dirtyFine;
    std::set<std::int64_t> dirtyCoarse;
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Shard {
    mutable std::mutex mutex;
    std::map<SeriesKey, Series> series;
    std::uint64_t ingested = 0;
    std::uint64_t evicted = 0;
    std::size_t dirty = 0;  ///< dirty-window marks queued in this shard
  };

  [[nodiscard]] Shard& shardOf(const SeriesKey& key);
  [[nodiscard]] const Shard& shardOf(const SeriesKey& key) const;
  [[nodiscard]] double windowSeconds(Resolution resolution) const;
  [[nodiscard]] int retention(Resolution resolution) const;

  /// The series for `key`, created (and membership bumped) on first
  /// touch.  Caller holds shard.mutex.
  Series& seriesLocked(Shard& shard, const SeriesKey& key);
  /// The series' version, cloned first if a snapshot may share it.
  /// Caller holds the series' shard lock.
  SeriesSnapshot& writableVersion(Series& series) const;
  /// Admits a write at `index` into `plane`: null when the index is
  /// beyond the retention horizon, else evicts what the write pushes off
  /// the horizon and returns the window's writable rollup, which the
  /// caller must leave holding a window (count > 0).
  Rollup* admitWindow(WindowPlane& plane, std::int64_t index, int retention,
                      std::uint64_t& evicted) const;
  /// Evicts every window below `oldestKept`, counting them.
  void trimBelow(WindowPlane& plane, std::int64_t oldestKept,
                 std::uint64_t& evicted) const;
  /// Same, for chunk windows only (the head is kept): advances the
  /// plane's lower bound and drops chunks wholly below it.
  void hideBelow(WindowPlane& plane, std::int64_t oldestKept,
                 std::uint64_t& evicted) const;
  /// The chunk slot of window `index` (below the head), with the table
  /// and chunk allocated or cloned so it is writable.
  Rollup& writableSlot(WindowPlane& plane, std::int64_t index) const;

  void mergeLocked(Series& series, double timeSeconds, double value,
                   Shard& shard);

  void markDirtyLocked(Series& series, Resolution resolution,
                       std::int64_t index, Shard& shard);

  StoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Bumped by evictSource; outstanding SeriesRefs from older
  /// generations re-resolve instead of touching freed nodes.
  std::atomic<std::uint64_t> generation_{1};
  /// Bumped by every data mutation; see dataGeneration().
  std::atomic<std::uint64_t> dataGeneration_{1};
  /// Bumped, under the affected shard's lock, when a series is added or
  /// erased; see membershipGeneration().
  std::atomic<std::uint64_t> membershipGeneration_{1};
  std::atomic<bool> trackDirty_{false};

  /// Versions and chunks allocated in an older epoch may be shared with
  /// a published snapshot.  Advanced by snapshot() while it holds every
  /// shard lock; read by writers under their one shard lock.
  mutable std::uint64_t publishEpoch_ = 1;

  /// snapshot()'s series index: every series' current version in key
  /// order, so a snapshot is one contiguous copy.  Rebuilt by snapshot()
  /// when membership moved; between rebuilds a writer that clones a
  /// version refreshes its own slot under its shard lock.  indexMutex_ is
  /// taken before the shard locks.
  mutable std::mutex indexMutex_;
  mutable std::vector<StoreSnapshot::Version> index_;
  mutable std::uint64_t indexMembership_ = 0;
};

}  // namespace zerosum::aggregator
