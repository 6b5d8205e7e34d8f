// RollupStore: the rollup math is checked against a brute-force
// reference model (hold every sample, recompute windows from scratch)
// across window boundaries, eviction, and out-of-order arrival.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/store.hpp"

using namespace zerosum::aggregator;

namespace {

/// Brute-force reference: remembers every (time, value) and recomputes
/// the retained windows exactly as documented.
class ReferenceModel {
 public:
  explicit ReferenceModel(const StoreOptions& options) : options_(options) {}

  void ingest(double timeSeconds, double value) {
    samples_.emplace_back(timeSeconds, value);
  }

  /// windowIndex -> rollup at the given resolution, retention applied.
  [[nodiscard]] std::map<std::int64_t, Rollup> windows(
      Resolution resolution) const {
    const double width = resolution == Resolution::kFine
                             ? options_.fineWindowSeconds
                             : options_.fineWindowSeconds *
                                   options_.coarseFactor;
    const int retention = resolution == Resolution::kFine
                              ? options_.fineRetentionWindows
                              : options_.coarseRetentionWindows;
    // Replay in arrival order, applying the store's rule: a sample
    // older than (newest seen so far) - retention + 1 is rejected;
    // otherwise it merges, and everything below the horizon is evicted.
    std::map<std::int64_t, Rollup> out;
    std::int64_t newest = std::numeric_limits<std::int64_t>::min();
    for (const auto& [t, v] : samples_) {
      const auto index =
          static_cast<std::int64_t>(std::floor(t / width));
      if (newest != std::numeric_limits<std::int64_t>::min() &&
          index <= newest - retention) {
        continue;  // too old: outside the retention horizon
      }
      out[index].merge(v);
      newest = std::max(newest, index);
      const std::int64_t horizon = newest - retention + 1;
      while (!out.empty() && out.begin()->first < horizon) {
        out.erase(out.begin());
      }
    }
    return out;
  }

 private:
  StoreOptions options_;
  std::vector<std::pair<double, double>> samples_;
};

void expectMatchesReference(const RollupStore& store,
                            const ReferenceModel& model,
                            const SeriesKey& key, Resolution resolution) {
  const double width = resolution == Resolution::kFine
                           ? store.options().fineWindowSeconds
                           : store.options().fineWindowSeconds *
                                 store.options().coarseFactor;
  const auto expected = model.windows(resolution);
  const auto actual = store.range(
      key, -1e12, 1e12, resolution);
  ASSERT_EQ(actual.size(), expected.size());
  std::size_t i = 0;
  for (const auto& [index, rollup] : expected) {
    const auto& window = actual[i++];
    EXPECT_DOUBLE_EQ(window.windowStartSeconds,
                     static_cast<double>(index) * width);
    EXPECT_DOUBLE_EQ(window.windowSeconds, width);
    EXPECT_DOUBLE_EQ(window.rollup.min, rollup.min);
    EXPECT_DOUBLE_EQ(window.rollup.max, rollup.max);
    EXPECT_DOUBLE_EQ(window.rollup.sum, rollup.sum);
    EXPECT_EQ(window.rollup.count, rollup.count);
  }
}

const SeriesKey kKey{"job", 0, "hwt.0.user_pct"};

}  // namespace

TEST(AggStore, SingleWindowStatisticsMatchListing2) {
  RollupStore store;
  for (double v : {10.0, 50.0, 30.0}) {
    store.ingest(kKey, 0.25, v);
  }
  const auto window = store.latest(kKey);
  ASSERT_TRUE(window.has_value());
  EXPECT_DOUBLE_EQ(window->rollup.min, 10.0);
  EXPECT_DOUBLE_EQ(window->rollup.max, 50.0);
  EXPECT_DOUBLE_EQ(window->rollup.avg(), 30.0);
  EXPECT_EQ(window->rollup.count, 3U);
}

TEST(AggStore, SamplesSplitAcrossWindowBoundaries) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  RollupStore store(options);
  ReferenceModel model(options);
  // Values straddling t=1.0 and t=2.0 boundaries, including exactly on
  // a boundary (belongs to the window it starts).
  for (const auto& [t, v] : std::vector<std::pair<double, double>>{
           {0.1, 1.0}, {0.9, 2.0}, {1.0, 3.0}, {1.999, 4.0}, {2.0, 5.0}}) {
    store.ingest(kKey, t, v);
    model.ingest(t, v);
  }
  expectMatchesReference(store, model, kKey, Resolution::kFine);
  expectMatchesReference(store, model, kKey, Resolution::kCoarse);
}

TEST(AggStore, RandomizedStreamMatchesBruteForceAtBothResolutions) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.coarseFactor = 5;
  options.fineRetentionWindows = 20;
  options.coarseRetentionWindows = 8;
  RollupStore store(options);
  ReferenceModel model(options);
  std::mt19937 rng(0xC0FFEEU);
  std::uniform_real_distribution<double> jitter(-3.0, 3.0);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  double clock = 0.0;
  for (int i = 0; i < 2000; ++i) {
    clock += 0.05;
    // Out-of-order arrivals: up to 3 s of backwards jitter.
    const double t = std::max(0.0, clock + jitter(rng));
    const double v = value(rng);
    store.ingest(kKey, t, v);
    model.ingest(t, v);
  }
  expectMatchesReference(store, model, kKey, Resolution::kFine);
  expectMatchesReference(store, model, kKey, Resolution::kCoarse);
  EXPECT_EQ(store.samplesIngested(), 2000U);
}

TEST(AggStore, RetentionEvictsOldWindows) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.fineRetentionWindows = 5;
  RollupStore store(options);
  ReferenceModel model(options);
  for (int t = 0; t < 50; ++t) {
    store.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
    model.ingest(static_cast<double>(t) + 0.5, 1.0);
  }
  const auto windows = store.range(kKey, 0.0, 100.0);
  EXPECT_EQ(windows.size(), 5U);
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 45.0);
  EXPECT_GT(store.windowsEvicted(), 0U);
  expectMatchesReference(store, model, kKey, Resolution::kFine);
}

TEST(AggStore, ArrivalOlderThanRetentionHorizonIsRejected) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.fineRetentionWindows = 5;
  RollupStore store(options);
  ReferenceModel model(options);
  store.ingest(kKey, 100.0, 1.0);
  model.ingest(100.0, 1.0);
  store.ingest(kKey, 10.0, 2.0);  // far below the horizon: dropped
  model.ingest(10.0, 2.0);
  const auto windows = store.range(kKey, 0.0, 200.0);
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_DOUBLE_EQ(windows[0].windowStartSeconds, 100.0);
  expectMatchesReference(store, model, kKey, Resolution::kFine);
}

TEST(AggStore, OutOfOrderWithinHorizonMergesIntoCorrectWindow) {
  RollupStore store;
  store.ingest(kKey, 10.5, 1.0);
  store.ingest(kKey, 8.5, 3.0);  // late but retained
  store.ingest(kKey, 8.7, 5.0);
  const auto windows = store.range(kKey, 8.0, 11.0);
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_DOUBLE_EQ(windows[0].windowStartSeconds, 8.0);
  EXPECT_EQ(windows[0].rollup.count, 2U);
  EXPECT_DOUBLE_EQ(windows[0].rollup.min, 3.0);
  EXPECT_DOUBLE_EQ(windows[0].rollup.max, 5.0);
}

TEST(AggStore, NonFiniteValuesAndNegativeTimesAreIgnored) {
  RollupStore store;
  store.ingest(kKey, 1.0, std::numeric_limits<double>::quiet_NaN());
  store.ingest(kKey, 1.0, std::numeric_limits<double>::infinity());
  store.ingest(kKey, -5.0, 1.0);
  store.ingest(kKey, std::numeric_limits<double>::quiet_NaN(), 1.0);
  EXPECT_EQ(store.samplesIngested(), 0U);
  EXPECT_FALSE(store.latest(kKey).has_value());
}

TEST(AggStore, EvictSourceDropsAllSeriesOfThatRankOnly) {
  RollupStore store;
  store.ingest({"job", 0, "a"}, 1.0, 1.0);
  store.ingest({"job", 0, "b"}, 1.0, 1.0);
  store.ingest({"job", 1, "a"}, 1.0, 1.0);
  store.ingest({"other", 0, "a"}, 1.0, 1.0);
  EXPECT_EQ(store.evictSource("job", 0), 2U);
  EXPECT_EQ(store.seriesCount(), 2U);
  EXPECT_TRUE(store.keysOf("job", 0).empty());
  EXPECT_EQ(store.keysOf("job", 1).size(), 1U);
}

TEST(AggStore, KeysAreSortedAndFiltered) {
  RollupStore store;
  store.ingest({"b", 1, "m"}, 1.0, 1.0);
  store.ingest({"a", 2, "m"}, 1.0, 1.0);
  store.ingest({"a", 1, "z"}, 1.0, 1.0);
  store.ingest({"a", 1, "m"}, 1.0, 1.0);
  const auto keys = store.keys();
  ASSERT_EQ(keys.size(), 4U);
  EXPECT_EQ(keys[0], (SeriesKey{"a", 1, "m"}));
  EXPECT_EQ(keys[1], (SeriesKey{"a", 1, "z"}));
  EXPECT_EQ(keys[2], (SeriesKey{"a", 2, "m"}));
  EXPECT_EQ(keys[3], (SeriesKey{"b", 1, "m"}));
}

TEST(AggStore, RangeQuerySelectsIntersectingWindowsOnly) {
  RollupStore store;
  for (int t = 0; t < 10; ++t) {
    store.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
  }
  const auto windows = store.range(kKey, 3.2, 5.8);
  ASSERT_EQ(windows.size(), 3U);  // windows starting at 3, 4, 5
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 3.0);
  EXPECT_DOUBLE_EQ(windows.back().windowStartSeconds, 5.0);
}

// --- federation surface: merge / ingestWindow / dirty tracking ---------------
// (DESIGN.md §11: the root answers queries over the union of per-shard
// stores; merge() must be indistinguishable from one store having seen
// every record.)

#include "aggregator/federation.hpp"

namespace {

/// Every window of every series in `expected`, bit-for-bit in `actual`
/// (and nothing extra): the "indistinguishable from one sequential
/// store" property.
void expectStoresIdentical(const RollupStore& expected,
                           const RollupStore& actual) {
  ASSERT_EQ(expected.keys(), actual.keys());
  for (const auto& key : expected.keys()) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const auto want = expected.range(key, -1e12, 1e12, res);
      const auto got = actual.range(key, -1e12, 1e12, res);
      ASSERT_EQ(want.size(), got.size())
          << key.job << "/" << key.rank << "/" << key.metric;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].windowStartSeconds, got[i].windowStartSeconds);
        EXPECT_EQ(want[i].rollup.min, got[i].rollup.min);    // bit-identical,
        EXPECT_EQ(want[i].rollup.max, got[i].rollup.max);    // so EXPECT_EQ
        EXPECT_EQ(want[i].rollup.sum, got[i].rollup.sum);    // not _NEAR
        EXPECT_EQ(want[i].rollup.count, got[i].rollup.count);
      }
    }
  }
}

}  // namespace

TEST(AggStoreMerge, PartitionedStoresMergeBitIdenticalToSequential) {
  // Property: partition a random record stream by shardOfSeries across
  // three stores; merging the partitions must be bit-identical to the
  // single store that ingested everything in order.
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<double> value(-50.0, 50.0);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  const std::vector<std::string> metrics = {"hwt.0.user_pct", "mem.rss",
                                            "gpu.0.util"};
  RollupStore sequential;
  RollupStore parts[3];
  for (int i = 0; i < 5000; ++i) {
    const SeriesKey key{"job", static_cast<int>(rng() % 16),
                        metrics[rng() % metrics.size()]};
    const double t = static_cast<double>(rng() % 40) + jitter(rng);
    const double v = value(rng);
    sequential.ingest(key, t, v);
    parts[shardOfSeries(key) % 3].ingest(key, t, v);
  }
  RollupStore merged;
  for (const auto& part : parts) {
    merged.merge(part);
  }
  expectStoresIdentical(sequential, merged);
}

TEST(AggStoreMerge, OverlappingWindowsCombineAcrossStores) {
  // Two stores holding the *same* series (not a partition) still merge
  // correctly: counts add, min/max widen.  Bit-identical sums are not
  // promised here — only the partitioned case — but this sum is exact.
  RollupStore a;
  RollupStore b;
  a.ingest(kKey, 5.5, 10.0);
  a.ingest(kKey, 5.7, 2.0);
  b.ingest(kKey, 5.6, 30.0);
  RollupStore merged;
  merged.merge(a);
  merged.merge(b);
  const auto window = merged.latest(kKey);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->rollup.count, 3U);
  EXPECT_DOUBLE_EQ(window->rollup.min, 2.0);
  EXPECT_DOUBLE_EQ(window->rollup.max, 30.0);
  EXPECT_DOUBLE_EQ(window->rollup.sum, 42.0);
}

TEST(AggStoreMerge, MergeRespectsDestinationRetention) {
  // The source retains more history than the destination: windows beyond
  // the destination's horizon must not resurrect.
  StoreOptions deep;
  deep.fineRetentionWindows = 600;
  StoreOptions shallow;
  shallow.fineRetentionWindows = 4;
  RollupStore source((deep));
  for (int t = 0; t < 100; ++t) {
    source.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
  }
  RollupStore dest((shallow));
  dest.merge(source);
  const auto windows = dest.range(kKey, -1e12, 1e12);
  ASSERT_EQ(windows.size(), 4U);
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 96.0);
  EXPECT_DOUBLE_EQ(windows.back().windowStartSeconds, 99.0);
}

TEST(AggStoreMerge, MergeAtTheEvictionBoundaryKeepsNewestWindows) {
  // Both stores at full retention with disjoint-but-abutting histories:
  // the merge result holds exactly the newest `fineRetentionWindows`.
  StoreOptions small;
  small.fineRetentionWindows = 8;
  RollupStore older((small));
  RollupStore newer((small));
  for (int t = 0; t < 8; ++t) {
    older.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
    newer.ingest(kKey, static_cast<double>(t + 4) + 0.5, 2.0);
  }
  RollupStore merged((small));
  merged.merge(older);
  merged.merge(newer);
  const auto windows = merged.range(kKey, -1e12, 1e12);
  ASSERT_EQ(windows.size(), 8U);
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 4.0);
  EXPECT_DOUBLE_EQ(windows.back().windowStartSeconds, 11.0);
  // The overlap region [4, 8) saw both stores' records.
  EXPECT_EQ(windows.front().rollup.count, 2U);
  EXPECT_EQ(windows.back().rollup.count, 1U);
}

TEST(AggStoreWindow, IngestWindowReplacesOnlyWhenStrictlyNewer) {
  RollupStore store;
  const Rollup two{1.0, 5.0, 6.0, 2};
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, 7, two));
  // A retransmit of the same cumulative snapshot: conflict, kept as-is.
  EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kFine, 7, two));
  // An older snapshot (fewer records seen): conflict.
  EXPECT_FALSE(
      store.ingestWindow(kKey, Resolution::kFine, 7, Rollup{1.0, 1.0, 1.0, 1}));
  EXPECT_DOUBLE_EQ(store.latest(kKey)->rollup.max, 5.0);
  // Strictly newer (higher count) replaces wholesale.
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, 7,
                                 Rollup{0.5, 9.0, 15.5, 3}));
  const auto window = store.latest(kKey);
  EXPECT_EQ(window->rollup.count, 3U);
  EXPECT_DOUBLE_EQ(window->rollup.min, 0.5);
  EXPECT_DOUBLE_EQ(window->rollup.sum, 15.5);
}

TEST(AggStoreWindow, IngestWindowBeyondRetentionHorizonIsRejected) {
  StoreOptions small;
  small.fineRetentionWindows = 4;
  RollupStore store((small));
  store.ingest(kKey, 100.5, 1.0);  // newest fine window index = 100
  EXPECT_FALSE(
      store.ingestWindow(kKey, Resolution::kFine, 90, Rollup{1, 1, 1, 1}));
  EXPECT_TRUE(
      store.ingestWindow(kKey, Resolution::kFine, 98, Rollup{1, 1, 1, 1}));
  EXPECT_EQ(store.range(kKey, -1e12, 1e12).size(), 2U);
}

TEST(AggStoreDirty, TrackingIsOffByDefaultAndDrainsSnapshots) {
  RollupStore store;
  store.ingest(kKey, 1.5, 1.0);
  EXPECT_EQ(store.dirtyCount(), 0U);  // off by default: no bookkeeping

  store.enableDirtyTracking();
  store.ingest(kKey, 1.6, 3.0);
  // One fine window + one coarse window touched.
  EXPECT_EQ(store.dirtyCount(), 2U);
  std::vector<DirtyWindow> drained;
  EXPECT_EQ(store.drainDirty(drained, 100), 2U);
  EXPECT_EQ(store.dirtyCount(), 0U);
  // The drained rollup is the window's full cumulative snapshot (both
  // records), not a delta since tracking was enabled.
  const auto fine =
      std::find_if(drained.begin(), drained.end(), [](const DirtyWindow& w) {
        return w.resolution == Resolution::kFine;
      });
  ASSERT_NE(fine, drained.end());
  EXPECT_EQ(fine->rollup.count, 2U);
  EXPECT_DOUBLE_EQ(fine->rollup.sum, 4.0);
  // Draining again with no new ingest yields nothing (marks cleared).
  EXPECT_EQ(store.drainDirty(drained, 100), 0U);
}

TEST(AggStoreDirty, MarkAllDirtyQueuesEveryRetainedWindow) {
  RollupStore store;
  store.enableDirtyTracking();
  for (int t = 0; t < 5; ++t) {
    store.ingest({"job", 0, "a"}, static_cast<double>(t) + 0.5, 1.0);
    store.ingest({"job", 1, "b"}, static_cast<double>(t) + 0.5, 1.0);
  }
  std::vector<DirtyWindow> drained;
  store.drainDirty(drained, 1000);
  drained.clear();
  store.markAllDirty();
  store.drainDirty(drained, 1000);
  // 2 series x (5 fine windows + 1 coarse window).
  EXPECT_EQ(drained.size(), 12U);
}

TEST(AggStoreDirty, DrainRespectsBudgetAndSkipsEvictedWindows) {
  StoreOptions small;
  small.fineRetentionWindows = 4;
  RollupStore store((small));
  store.enableDirtyTracking();
  store.ingest(kKey, 0.5, 1.0);
  // Budgeted drain: at most one window per call, the rest stays queued.
  std::vector<DirtyWindow> drained;
  EXPECT_EQ(store.drainDirty(drained, 1), 1U);
  EXPECT_EQ(store.dirtyCount(), 1U);
  drained.clear();
  // The still-queued window's fine entry is evicted before the drain:
  // jump far ahead so retention drops window 0.
  store.ingest(kKey, 100.5, 1.0);
  store.drainDirty(drained, 1000);
  for (const auto& window : drained) {
    if (window.resolution == Resolution::kFine) {
      EXPECT_GE(window.windowIndex, 97);  // window 0 never re-surfaces
    }
  }
}

// --- StoreSnapshot + dataGeneration (DESIGN.md §12) -------------------------

TEST(AggStoreSnapshot, DataGenerationBumpsOnEveryMutation) {
  RollupStore store;
  const std::uint64_t g0 = store.dataGeneration();
  store.ingest(kKey, 1.5, 1.0);
  const std::uint64_t g1 = store.dataGeneration();
  EXPECT_GT(g1, g0);
  store.ingestWindow(kKey, Resolution::kFine, 3, Rollup{2.0, 2.0, 2.0, 1});
  const std::uint64_t g2 = store.dataGeneration();
  EXPECT_GT(g2, g1);
  store.evictSource(kKey.job, kKey.rank);
  EXPECT_GT(store.dataGeneration(), g2);
  // Reads do not bump it: equal readings bracket an unchanged interval.
  const std::uint64_t g3 = store.dataGeneration();
  (void)store.latest(kKey);
  (void)store.keys();
  (void)store.snapshot();
  EXPECT_EQ(store.dataGeneration(), g3);
}

TEST(AggStoreSnapshot, SnapshotCapturesEveryRetainedWindowImmutably) {
  RollupStore store;
  store.ingest({"job", 0, "a"}, 1.5, 10.0);
  store.ingest({"job", 0, "a"}, 2.5, 20.0);
  store.ingest({"job", 1, "b"}, 1.5, 30.0);

  const StoreSnapshot snap = store.snapshot();
  EXPECT_EQ(snap.generation(), store.dataGeneration());
  EXPECT_EQ(snap.seriesCount(), 2U);
  EXPECT_DOUBLE_EQ(snap.fineWindowSeconds(),
                   store.options().fineWindowSeconds);

  // Same answers as the live store, window for window...
  const SeriesKey a{"job", 0, "a"};
  const auto liveRange = store.range(a, 0.0, 10.0);
  const auto snapRange = snap.range(a, 0.0, 10.0);
  ASSERT_EQ(snapRange.size(), liveRange.size());
  for (std::size_t i = 0; i < snapRange.size(); ++i) {
    EXPECT_EQ(snapRange[i].windowStartSeconds,
              liveRange[i].windowStartSeconds);
    EXPECT_EQ(snapRange[i].rollup.count, liveRange[i].rollup.count);
    EXPECT_EQ(snapRange[i].rollup.sum, liveRange[i].rollup.sum);
  }
  ASSERT_TRUE(snap.latest(a).has_value());
  EXPECT_DOUBLE_EQ(snap.latest(a)->rollup.max, 20.0);
  // ...and a miss stays a miss.
  EXPECT_FALSE(snap.latest({"job", 9, "zz"}).has_value());

  // The copy is frozen: later ingest changes the store, not the snapshot.
  store.ingest(a, 2.7, 99.0);
  EXPECT_DOUBLE_EQ(store.latest(a)->rollup.max, 99.0);
  EXPECT_DOUBLE_EQ(snap.latest(a)->rollup.max, 20.0);
  EXPECT_LT(snap.generation(), store.dataGeneration());
}

TEST(AggStoreSnapshot, SeriesAreSortedAndBothResolutionsPresent) {
  RollupStore store;
  store.ingest({"b-job", 0, "m"}, 1.5, 1.0);
  store.ingest({"a-job", 5, "m"}, 12.5, 2.0);
  store.ingest({"a-job", 0, "m"}, 1.5, 3.0);

  const StoreSnapshot snap = store.snapshot();
  ASSERT_EQ(snap.series().size(), 3U);
  EXPECT_TRUE(std::is_sorted(
      snap.series().begin(), snap.series().end(),
      [](const SeriesSnapshot& x, const SeriesSnapshot& y) {
        return x.key < y.key;
      }));
  for (const SeriesSnapshot& series : snap.series()) {
    EXPECT_FALSE(series.fine.empty()) << series.key.metric;
    EXPECT_FALSE(series.coarse.empty()) << series.key.metric;
  }
  // Coarse windows answer through the snapshot too.
  const auto coarse =
      snap.latest({"a-job", 5, "m"}, Resolution::kCoarse);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_DOUBLE_EQ(coarse->windowSeconds,
                   store.options().fineWindowSeconds *
                       store.options().coarseFactor);
}

// --- copy-on-write snapshots (DESIGN.md §12) ---------------------------------

namespace {

/// Every window of every series of a snapshot, by value: what "the
/// snapshot stayed bit-identical" is checked against.
struct FlatWindow {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::int64_t index = 0;
  Rollup rollup;
};

std::vector<FlatWindow> flatten(const StoreSnapshot& snap) {
  std::vector<FlatWindow> out;
  for (const SeriesSnapshot& series : snap.series()) {
    for (const auto& [index, rollup] : series.fine) {
      out.push_back({series.key, Resolution::kFine, index, rollup});
    }
    for (const auto& [index, rollup] : series.coarse) {
      out.push_back({series.key, Resolution::kCoarse, index, rollup});
    }
  }
  return out;
}

void expectSameWindows(const std::vector<FlatWindow>& want,
                       const std::vector<FlatWindow>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key);
    EXPECT_EQ(want[i].resolution, got[i].resolution);
    EXPECT_EQ(want[i].index, got[i].index);
    EXPECT_EQ(want[i].rollup.min, got[i].rollup.min);
    EXPECT_EQ(want[i].rollup.max, got[i].rollup.max);
    EXPECT_EQ(want[i].rollup.sum, got[i].rollup.sum);
    EXPECT_EQ(want[i].rollup.count, got[i].rollup.count);
  }
}

}  // namespace

TEST(AggStoreCow, RefreshSharesStorageOfEveryUntouchedSeries) {
  // The fleet root's shape: 32 ranks x 89 metrics = 2848 series, 40 s
  // of 1 s windows each (three fine chunks per series).
  RollupStore store;
  for (int rank = 0; rank < 32; ++rank) {
    for (int m = 0; m < 89; ++m) {
      SeriesKey key{"fleet", rank, "m"};
      key.metric += std::to_string(m);
      for (int t = 0; t < 40; ++t) {
        store.ingest(key, t + 0.5, rank + m + t);
      }
    }
  }
  const StoreSnapshot before = store.snapshot();
  ASSERT_EQ(before.seriesCount(), 2848U);
  const std::vector<FlatWindow> frozen = flatten(before);

  // One series written in its newest window (the inline head), one
  // written out of order in an older window (a chunk).
  const SeriesKey current{"fleet", 7, "m42"};
  const SeriesKey late{"fleet", 9, "m3"};
  store.ingest(current, 39.25, 1000.0);
  store.ingest(late, 20.5, -1.0);
  const StoreSnapshot after = store.snapshot();
  ASSERT_EQ(after.seriesCount(), 2848U);

  std::size_t shared = 0;
  auto a = before.series().begin();
  for (const SeriesSnapshot& now : after.series()) {
    const SeriesSnapshot& then = *a++;
    ASSERT_EQ(now.key, then.key);
    if (now.key == current) {
      // A new version; a write to the newest window copies no chunk.
      EXPECT_NE(&now, &then);
      for (const std::int64_t w : {0, 16, 32}) {
        EXPECT_NE(now.fine.chunk(w), nullptr);
        EXPECT_EQ(now.fine.chunk(w), then.fine.chunk(w)) << w;
      }
      EXPECT_EQ(now.coarse.chunk(0), then.coarse.chunk(0));
      EXPECT_EQ(now.fine.find(39)->max, 1000.0);
      EXPECT_EQ(then.fine.find(39)->count, 1U);
    } else if (now.key == late) {
      // A new version sharing every chunk but the one written.
      EXPECT_NE(&now, &then);
      EXPECT_EQ(now.fine.chunk(0), then.fine.chunk(0));
      EXPECT_NE(now.fine.chunk(20), then.fine.chunk(20));
      EXPECT_EQ(now.fine.chunk(32), then.fine.chunk(32));
      EXPECT_EQ(now.fine.find(20)->min, -1.0);
      EXPECT_EQ(then.fine.find(20)->count, 1U);
    } else {
      shared += &now == &then ? 1 : 0;
    }
  }
  EXPECT_EQ(shared, 2846U);
  // The earlier snapshot never saw the write.
  expectSameWindows(frozen, flatten(before));
}

TEST(AggStoreCow, MembershipGenerationMovesOnlyWithTheKeySet) {
  RollupStore store;
  const std::uint64_t m0 = store.membershipGeneration();
  store.ingest(kKey, 1.5, 1.0);
  const std::uint64_t m1 = store.membershipGeneration();
  EXPECT_GT(m1, m0);
  // More data into existing series: data moves, membership does not.
  store.ingest(kKey, 2.5, 1.0);
  store.ingestWindow(kKey, Resolution::kFine, 3, Rollup{2.0, 2.0, 2.0, 1});
  EXPECT_EQ(store.membershipGeneration(), m1);
  EXPECT_EQ(store.snapshot().membershipGeneration(), m1);
  store.ingestWindow({"job", 1, "x"}, Resolution::kFine, 3,
                     Rollup{2.0, 2.0, 2.0, 1});
  const std::uint64_t m2 = store.membershipGeneration();
  EXPECT_GT(m2, m1);
  store.evictSource("job", 1);
  EXPECT_GT(store.membershipGeneration(), m2);
  const StoreSnapshot snap = store.snapshot();
  ASSERT_EQ(snap.seriesCount(), 1U);
  EXPECT_EQ(snap.series().begin()->key, kKey);
}

TEST(AggStoreCow, SnapshotsTakenMidStreamStayExact) {
  // Snapshots taken between writes — so every kind of write meets
  // shared chunks: merges, retention trims across chunk boundaries,
  // out-of-order arrivals, whole-chunk drops — each still match the
  // reference model at the instant they were taken.
  StoreOptions options;
  options.coarseFactor = 5;
  options.fineRetentionWindows = 37;  // not a chunk multiple
  options.coarseRetentionWindows = 9;
  RollupStore store(options);
  ReferenceModel model(options);
  std::mt19937 rng(0x5EEDU);
  std::uniform_real_distribution<double> jitter(-20.0, 3.0);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  struct Taken {
    StoreSnapshot snap;
    std::map<std::int64_t, Rollup> fine;
    std::map<std::int64_t, Rollup> coarse;
  };
  std::vector<Taken> taken;
  double clock = 0.0;
  for (int i = 0; i < 3000; ++i) {
    clock += i % 500 == 499 ? 60.0 : 0.1;  // periodic jumps drop chunks
    const double t = std::max(0.0, clock + jitter(rng));
    const double v = value(rng);
    store.ingest(kKey, t, v);
    model.ingest(t, v);
    if (rng() % 50 == 0) {
      taken.push_back({store.snapshot(), model.windows(Resolution::kFine),
                       model.windows(Resolution::kCoarse)});
    }
  }
  ASSERT_GT(taken.size(), 20U);
  for (const Taken& then : taken) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const auto& want = res == Resolution::kFine ? then.fine : then.coarse;
      const auto got = then.snap.range(kKey, -1e12, 1e12, res);
      ASSERT_EQ(got.size(), want.size());
      std::size_t i = 0;
      for (const auto& [index, rollup] : want) {
        EXPECT_EQ(got[i].rollup.count, rollup.count) << index;
        EXPECT_EQ(got[i].rollup.sum, rollup.sum) << index;
        ++i;
      }
    }
  }
  expectMatchesReference(store, model, kKey, Resolution::kFine);
  expectMatchesReference(store, model, kKey, Resolution::kCoarse);
}

TEST(AggStoreCow, ExtremeWindowIndicesStayBounded) {
  // Forwarded window indices come off the wire: the far ends of int64
  // must neither overflow the horizon arithmetic nor grow the chunk
  // vector with the distance between windows.
  RollupStore store;
  const Rollup one{1.0, 1.0, 1.0, 1};
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, lo, one));
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, lo + 1, one));
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, hi, one));
  EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kFine, lo, one));
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, hi - 1, one));
  const StoreSnapshot snap = store.snapshot();
  const auto rows = snap.range(kKey, -1e300, 1e300);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(store.windowsEvicted(), 2U);
  EXPECT_EQ(snap.latest(kKey)->rollup.count, 1U);
}

TEST(AggStoreCow, ReadersHoldSnapshotsWhileEveryWriterRuns) {
  // Readers keep snapshots alive and re-read them while ingest,
  // ingestWindow, evictSource and merge run on other threads: a held
  // snapshot must read identically every time (run under TSan in CI).
  StoreOptions options;
  options.fineRetentionWindows = 40;
  options.coarseRetentionWindows = 8;
  RollupStore store(options);
  RollupStore donor(options);
  for (int t = 0; t < 50; ++t) {
    donor.ingest({"donor", 0, "m"}, t + 0.5, t);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(); ++i) {
      SeriesKey key{"job", i % 4, "m"};
      key.metric += std::to_string(i % 7);
      store.ingest(key, i * 0.01, i);
    }
  });
  threads.emplace_back([&] {
    for (std::uint64_t i = 1; !stop.load(); ++i) {
      store.ingestWindow({"fwd", static_cast<int>(i % 3), "m"},
                         Resolution::kFine,
                         static_cast<std::int64_t>(i / 5),
                         Rollup{1.0, 2.0, 3.0, i % 5 + 1});
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(); ++i) {
      store.evictSource("job", i % 4);
      store.merge(donor);
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::uint64_t lastGeneration = 0;
      for (int i = 0; i < 200; ++i) {
        const StoreSnapshot snap = store.snapshot();
        const std::vector<FlatWindow> first = flatten(snap);
        std::this_thread::yield();
        const std::vector<FlatWindow> second = flatten(snap);
        bool same = first.size() == second.size();
        for (std::size_t w = 0; same && w < first.size(); ++w) {
          same = first[w].index == second[w].index &&
                 first[w].rollup.count == second[w].rollup.count &&
                 first[w].rollup.sum == second[w].rollup.sum;
        }
        const bool sorted = std::is_sorted(
            snap.series().begin(), snap.series().end(),
            [](const SeriesSnapshot& x, const SeriesSnapshot& y) {
              return x.key < y.key;
            });
        if (!same || !sorted || snap.generation() < lastGeneration) {
          failures.fetch_add(1);
        }
        lastGeneration = snap.generation();
      }
    });
  }
  for (std::size_t r = 3; r < threads.size(); ++r) {
    threads[r].join();
  }
  stop.store(true);
  for (std::size_t w = 0; w < 3; ++w) {
    threads[w].join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(store.seriesCount(), 0U);
}
