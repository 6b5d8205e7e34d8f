// SessionPublisher: the glue between the monitor and the export paths —
// after every sampling period it turns the newest observations into
// (a) a MetricStream batch (LDMS-style service feed),
// (b) PerfStubs counter samples (TAU-style tool feed), and
// (c) one staging step (the ADIOS2-style refactored log).
// Wire it with MonitorSession::setSampleCallback; in async mode the
// callback runs on the monitor thread, so all three sinks are
// thread-safe-by-construction (stream locks, ToolApi locks, the writer is
// owned by the publisher).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "common/interning.hpp"
#include "core/monitor.hpp"
#include "export/staging.hpp"
#include "export/stream.hpp"
#include "gpu/metrics.hpp"

namespace zerosum::exporter {

class SessionPublisher {
 public:
  struct Options {
    bool lwp = true;
    bool hwt = true;
    bool memory = true;
    bool gpu = true;
    /// Also push counters through the PerfStubs ToolApi when a tool
    /// backend is registered.
    bool perfstubs = false;
  };

  explicit SessionPublisher(MetricStream* stream)
      : SessionPublisher(stream, Options{}) {}
  SessionPublisher(MetricStream* stream, Options options);

  /// Adds an ADIOS2-style staging sink (one step per period).
  void openStaging(const std::string& path);
  void closeStaging();

  /// Attaches an aggregation client (paper §6: cross-process collection).
  /// Every published batch is also forwarded to the daemon, along with a
  /// per-period health update.  The client's bounded queue and drop
  /// counters guarantee a dead daemon cannot stall the publish path.
  void attachAggregator(std::unique_ptr<aggregator::Client> client);
  /// Final flush + kGoodbye; detaches the client and returns it (for
  /// counter inspection).  nullptr when none was attached.
  std::unique_ptr<aggregator::Client> closeAggregator(double timeSeconds);
  [[nodiscard]] aggregator::Client* aggregatorClient() {
    return aggregator_.get();
  }

  /// Publishes the observations taken at `timeSeconds`.  Designed as the
  /// MonitorSession sample callback.
  void publish(const core::MonitorSession& session, double timeSeconds);

  [[nodiscard]] std::uint64_t periodsPublished() const { return periods_; }

 private:
  /// Interned metric-name ids for one entity.  Built (with string
  /// concatenation) the first period an entity appears, then reused — the
  /// steady-state batch is assembled from ids alone.
  struct LwpIds {
    names::Id utime, stime, vctx, nvctx, processor;
  };
  struct HwtIds {
    names::Id user, system, idle;
  };
  /// One GPU record's metric-name ids, indexed by gpu::Metric; kInvalidId
  /// until the metric is first published.
  struct GpuIds {
    int visibleIndex = -1;
    std::array<names::Id, gpu::kAllMetrics.size()> metric{};
  };

  /// Fills batchScratch_ (reused across periods) and returns it.
  const Batch& makeBatch(const core::MonitorSession& session,
                         double timeSeconds);
  [[nodiscard]] const LwpIds& lwpIdsFor(int tid);
  [[nodiscard]] const HwtIds& hwtIdsFor(std::size_t cpu);
  [[nodiscard]] names::Id gpuIdFor(std::size_t record, int visibleIndex,
                                   gpu::Metric metric);

  MetricStream* stream_;
  Options options_;
  std::unique_ptr<StagingWriter> staging_;
  std::unique_ptr<aggregator::Client> aggregator_;
  std::uint64_t periods_ = 0;

  // --- Steady-state scratch + id caches (no allocation once warm) ---------
  Batch batchScratch_;
  std::vector<aggregator::IdRecord> wireScratch_;
  std::string nameScratch_;           ///< id -> text for string-taking sinks
  std::vector<double> rowScratch_{0.0, 0.0};  ///< staging [time, value] row
  names::Id sourceId_ = names::kInvalidId;
  bool sourceCached_ = false;
  std::int32_t sourceRank_ = 0;
  std::map<int, LwpIds> lwpIds_;
  std::map<std::size_t, HwtIds> hwtIds_;
  std::vector<GpuIds> gpuIds_;  ///< by position in gpus().records()
  names::Id memAvailableId_ = names::kInvalidId;
  names::Id memRssId_ = names::kInvalidId;
};

}  // namespace zerosum::exporter
