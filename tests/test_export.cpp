// Export subsystem: MetricStream pub/sub, PerfStubs-style tool API,
// ADIOS2-style staging container, and the SessionPublisher glue.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "export/perfstubs.hpp"
#include "export/publisher.hpp"
#include "export/staging.hpp"
#include "export/stream.hpp"
#include "core/zerosum.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"

namespace zerosum::exporter {
namespace {

Record makeRecord(const std::string& name, double value, double t = 1.0) {
  return Record{t, "rank.0", name, value};
}

TEST(MetricStream, DeliversToAllSubscribers) {
  MetricStream stream;
  int a = 0;
  int b = 0;
  stream.subscribe([&a](const Batch& batch) {
    a += static_cast<int>(batch.size());
  });
  stream.subscribe([&b](const Batch& batch) {
    b += static_cast<int>(batch.size());
  });
  stream.publish({makeRecord("x", 1), makeRecord("y", 2)});
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(stream.batchesPublished(), 1u);
  EXPECT_EQ(stream.recordsPublished(), 2u);
}

TEST(MetricStream, UnsubscribeStopsDelivery) {
  MetricStream stream;
  int count = 0;
  const int handle = stream.subscribe([&count](const Batch&) { ++count; });
  stream.publish({makeRecord("x", 1)});
  stream.unsubscribe(handle);
  stream.publish({makeRecord("x", 2)});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(stream.subscriberCount(), 0u);
}

TEST(MetricStream, SelfUnsubscribeFromCallbackDoesNotDeadlock) {
  MetricStream stream;
  int calls = 0;
  int handle = 0;
  handle = stream.subscribe([&](const Batch&) {
    ++calls;
    stream.unsubscribe(handle);
  });
  stream.publish({makeRecord("x", 1)});
  stream.publish({makeRecord("x", 2)});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stream.subscriberCount(), 0u);
}

TEST(MetricStream, UnsubscribeWaitsForInFlightDeliveryOnOtherThread) {
  // The contract that makes SessionPublisher teardown safe: once
  // unsubscribe() returns, the callback will never run (or be running)
  // again, so captured state may be freed immediately.
  MetricStream stream;
  std::atomic<bool> inCallback{false};
  std::atomic<bool> release{false};
  auto state = std::make_unique<std::atomic<int>>(0);
  auto* raw = state.get();
  const int handle = stream.subscribe([&, raw](const Batch&) {
    inCallback = true;
    while (!release) {
      std::this_thread::yield();
    }
    raw->fetch_add(1);  // would be a use-after-free if unsubscribe raced
  });
  std::thread publisher([&] { stream.publish({makeRecord("x", 1)}); });
  while (!inCallback) {
    std::this_thread::yield();
  }
  std::thread unsubscriber([&] {
    stream.unsubscribe(handle);
    state.reset();  // legal: delivery is guaranteed drained
  });
  // Give unsubscribe a moment to block on the in-flight delivery.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_NE(state, nullptr);  // still blocked, state not yet freed
  release = true;
  publisher.join();
  unsubscriber.join();
  EXPECT_EQ(state, nullptr);
  stream.publish({makeRecord("x", 2)});  // must not touch freed state
}

TEST(MetricStream, SurvivesConcurrentPublishAndSubscriberChurn) {
  // Stress for the publish/subscribe/unsubscribe races: publishers
  // hammer the stream while churn threads register short-lived
  // subscribers whose captured counters die right after unsubscribe.
  // Run under ASan (ZEROSUM_SANITIZE=address) to catch use-after-free.
  MetricStream stream;
  constexpr int kPublishers = 4;
  constexpr int kChurners = 4;
  constexpr int kRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};

  std::vector<std::thread> threads;
  threads.reserve(kPublishers + kChurners);
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&] {
      const Batch batch{makeRecord("stress", 1.0)};
      while (!stop) {
        stream.publish(batch);
      }
    });
  }
  for (int c = 0; c < kChurners; ++c) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        auto count = std::make_unique<std::uint64_t>(0);
        auto* raw = count.get();
        const int handle =
            stream.subscribe([raw](const Batch& b) { *raw += b.size(); });
        std::this_thread::yield();
        stream.unsubscribe(handle);
        delivered += *count;  // safe: no delivery can be in flight now
        count.reset();
      }
    });
  }
  for (int c = 0; c < kChurners; ++c) {
    threads[static_cast<std::size_t>(kPublishers + c)].join();
  }
  stop = true;
  for (int p = 0; p < kPublishers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  EXPECT_EQ(stream.subscriberCount(), 0u);
  EXPECT_GT(stream.batchesPublished(), 0u);
}

TEST(MetricStream, ThrowingSubscriberIsDroppedOthersSurvive) {
  MetricStream stream;
  int survivor = 0;
  stream.subscribe([](const Batch&) {
    throw StateError("subscriber exploded");
  });
  stream.subscribe([&survivor](const Batch&) { ++survivor; });
  stream.publish({makeRecord("x", 1)});
  EXPECT_EQ(survivor, 1);
  EXPECT_EQ(stream.subscriberCount(), 1u);  // the thrower was removed
  stream.publish({makeRecord("x", 2)});
  EXPECT_EQ(survivor, 2);
}

TEST(ToolApi, DormantWhenNoBackend) {
  auto& api = ToolApi::instance();
  api.deregisterBackend();
  EXPECT_FALSE(api.active());
  api.timerStart("t");  // must be harmless no-ops
  api.sampleCounter("c", 1.0);
  api.metadata("k", "v");
}

TEST(ToolApi, RecordingBackendCapturesEverything) {
  auto backend = std::make_shared<RecordingBackend>();
  auto& api = ToolApi::instance();
  api.registerBackend(backend);
  EXPECT_TRUE(api.active());
  {
    ScopedTimer timer("zerosum.sample");
    api.sampleCounter("lwp.1.utime_delta", 42.0);
    api.sampleCounter("lwp.1.utime_delta", 43.0);
    api.metadata("hostname", "frontier-sim");
  }
  api.deregisterBackend();
  api.sampleCounter("after", 1.0);  // not recorded

  const auto timers = backend->timers();
  EXPECT_EQ(timers.at("zerosum.sample").starts, 1u);
  EXPECT_EQ(timers.at("zerosum.sample").stops, 1u);
  const auto counters = backend->counters();
  EXPECT_EQ(counters.at("lwp.1.utime_delta"),
            (std::vector<double>{42.0, 43.0}));
  EXPECT_EQ(counters.count("after"), 0u);
  EXPECT_EQ(backend->metadataMap().at("hostname"), "frontier-sim");
}

class StagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test case as its own process, in parallel: the
    // path is unique per process and per test so no two cases share it.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (std::filesystem::temp_directory_path() /
             ("zs_staging_test." + std::to_string(::getpid()) + "." +
              info->name() + ".bin"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(StagingTest, WriteReadRoundTrip) {
  {
    StagingWriter writer(path_);
    writer.beginStep();
    writer.put("alpha", VariableData{{1.0, 2.0}, {3.0, 4.0}});
    writer.put("beta", std::vector<double>{7.5});
    writer.endStep();
    writer.beginStep();
    writer.put("alpha", std::vector<double>{9.0, 10.0});
    writer.endStep();
    writer.close();
    EXPECT_EQ(writer.stepsWritten(), 2u);
  }
  StagingReader reader(path_);
  EXPECT_EQ(reader.stepCount(), 2u);
  const auto vars = reader.variables(0);
  EXPECT_EQ(vars.size(), 2u);
  const VariableData alpha0 = reader.get(0, "alpha");
  ASSERT_EQ(alpha0.size(), 2u);
  EXPECT_EQ(alpha0[1], (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(reader.get(0, "beta"), (VariableData{{7.5}}));
  EXPECT_EQ(reader.get(1, "alpha"), (VariableData{{9.0, 10.0}}));
}

TEST_F(StagingTest, RandomAccessSkipsSteps) {
  {
    StagingWriter writer(path_);
    for (int step = 0; step < 50; ++step) {
      writer.beginStep();
      writer.put("v", std::vector<double>{static_cast<double>(step)});
      writer.endStep();
    }
  }
  StagingReader reader(path_);
  EXPECT_EQ(reader.stepCount(), 50u);
  EXPECT_EQ(reader.get(37, "v"), (VariableData{{37.0}}));
  EXPECT_EQ(reader.get(3, "v"), (VariableData{{3.0}}));  // backwards seek
}

TEST_F(StagingTest, WriterProtocolErrors) {
  StagingWriter writer(path_);
  EXPECT_THROW(writer.put("x", std::vector<double>{1.0}), StateError);
  EXPECT_THROW(writer.endStep(), StateError);
  writer.beginStep();
  EXPECT_THROW(writer.beginStep(), StateError);
  writer.put("x", std::vector<double>{1.0});
  EXPECT_THROW(writer.put("x", std::vector<double>{2.0}), StateError);
  EXPECT_THROW(writer.put("", std::vector<double>{1.0}), StateError);
  EXPECT_THROW(writer.put("ragged", VariableData{{1.0}, {1.0, 2.0}}),
               StateError);
  writer.close();
  EXPECT_THROW(writer.beginStep(), StateError);
}

TEST_F(StagingTest, CloseSealsOpenStep) {
  {
    StagingWriter writer(path_);
    writer.beginStep();
    writer.put("x", std::vector<double>{5.0});
    // no endStep(): close() (and the destructor) seal it
  }
  StagingReader reader(path_);
  EXPECT_EQ(reader.stepCount(), 1u);
  EXPECT_EQ(reader.get(0, "x"), (VariableData{{5.0}}));
}

TEST_F(StagingTest, ReaderRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "this is not a staging container at all, but it is long "
           "enough to hold a trailer";
  }
  EXPECT_THROW(StagingReader reader(path_), ParseError);
  EXPECT_THROW(StagingReader reader("/nonexistent/zs.bin"), NotFoundError);
}

TEST_F(StagingTest, ReaderRejectsTruncation) {
  {
    StagingWriter writer(path_);
    writer.beginStep();
    writer.put("x", std::vector<double>{1.0, 2.0, 3.0});
    writer.endStep();
  }
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 9);
  EXPECT_THROW(StagingReader reader(path_), ParseError);
}

TEST_F(StagingTest, UnknownStepAndVariableThrow) {
  {
    StagingWriter writer(path_);
    writer.beginStep();
    writer.put("x", std::vector<double>{1.0});
    writer.endStep();
  }
  StagingReader reader(path_);
  EXPECT_THROW(reader.get(5, "x"), NotFoundError);
  EXPECT_THROW(reader.get(0, "nope"), NotFoundError);
}

// --- SessionPublisher ------------------------------------------------------

class PublisherTest : public StagingTest {
 protected:
  PublisherTest() : node_(CpuSet::fromList("0-3"), 4ULL << 30) {
    sim::MiniQmcConfig qmc;
    qmc.ompThreads = 2;
    qmc.steps = 30;
    qmc.workPerStep = 20;
    rank_ = sim::buildMiniQmcRank(node_, CpuSet::fromList("0-1"), qmc,
                                  node_.hwts());
    core::Config cfg;
    cfg.jiffyHz = sim::kHz;
    cfg.signalHandler = false;
    session_ = std::make_unique<core::MonitorSession>(
        cfg, procfs::makeSimProcFs(node_, rank_.pid));
  }

  void runPeriods(int periods) {
    for (int i = 1; i <= periods; ++i) {
      node_.advance(sim::kHz);
      session_->sampleNow(node_.nowSeconds());
    }
  }

  sim::SimNode node_;
  sim::BuiltRank rank_;
  std::unique_ptr<core::MonitorSession> session_;
};

TEST_F(PublisherTest, RequiresStream) {
  EXPECT_THROW(SessionPublisher(nullptr), ConfigError);
}

TEST_F(PublisherTest, PublishesPerPeriodBatches) {
  MetricStream stream;
  std::vector<Batch> received;
  stream.subscribe([&received](const Batch& batch) {
    received.push_back(batch);
  });
  SessionPublisher publisher(&stream);
  session_->setSampleCallback(
      [&publisher](const core::MonitorSession& session, double t) {
        publisher.publish(session, t);
      });
  runPeriods(3);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(publisher.periodsPublished(), 3u);

  // The first batch carries per-LWP, per-HWT and memory records.
  bool sawLwp = false;
  bool sawHwt = false;
  bool sawMem = false;
  for (const auto& record : received[0]) {
    EXPECT_EQ(record.sourceView(), "rank.0");
    sawLwp = sawLwp || record.nameView().rfind("lwp.", 0) == 0;
    sawHwt = sawHwt || record.nameView().rfind("hwt.", 0) == 0;
    sawMem = sawMem || record.nameView().rfind("mem.", 0) == 0;
  }
  EXPECT_TRUE(sawLwp);
  EXPECT_TRUE(sawHwt);
  EXPECT_TRUE(sawMem);
}

TEST_F(PublisherTest, OptionsFilterCategories) {
  MetricStream stream;
  Batch last;
  stream.subscribe([&last](const Batch& batch) { last = batch; });
  SessionPublisher::Options options;
  options.lwp = false;
  options.memory = false;
  SessionPublisher publisher(&stream, options);
  session_->setSampleCallback(
      [&publisher](const core::MonitorSession& session, double t) {
        publisher.publish(session, t);
      });
  runPeriods(1);
  for (const auto& record : last) {
    EXPECT_TRUE(record.nameView().rfind("hwt.", 0) == 0)
        << record.nameView();
  }
}

TEST_F(PublisherTest, PerfstubsCountersFlow) {
  auto backend = std::make_shared<RecordingBackend>();
  ToolApi::instance().registerBackend(backend);
  MetricStream stream;
  SessionPublisher::Options options;
  options.perfstubs = true;
  SessionPublisher publisher(&stream, options);
  session_->setSampleCallback(
      [&publisher](const core::MonitorSession& session, double t) {
        publisher.publish(session, t);
      });
  runPeriods(2);
  ToolApi::instance().deregisterBackend();
  const auto counters = backend->counters();
  EXPECT_FALSE(counters.empty());
  // Each counter got one value per period.
  const std::string mainUtime =
      "lwp." + std::to_string(rank_.pid) + ".utime_delta";
  ASSERT_TRUE(counters.count(mainUtime));
  EXPECT_EQ(counters.at(mainUtime).size(), 2u);
}

TEST_F(PublisherTest, StagingStepsMirrorPeriods) {
  MetricStream stream;
  SessionPublisher publisher(&stream);
  publisher.openStaging(path_);
  session_->setSampleCallback(
      [&publisher](const core::MonitorSession& session, double t) {
        publisher.publish(session, t);
      });
  runPeriods(4);
  publisher.closeStaging();

  StagingReader reader(path_);
  EXPECT_EQ(reader.stepCount(), 4u);
  // Reassemble the main thread's utime series across steps.
  const std::string mainUtime =
      "lwp." + std::to_string(rank_.pid) + ".utime_delta";
  std::vector<double> series;
  for (std::uint64_t step = 0; step < reader.stepCount(); ++step) {
    const auto rows = reader.get(step, mainUtime);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 2u);  // [time, value]
    series.push_back(rows[0][1]);
  }
  EXPECT_EQ(series.size(), 4u);
  // The rank is busy: utime deltas are substantial each period.
  for (double v : series) {
    EXPECT_GT(v, 10.0);
  }
}

TEST(Finalize, FlushesIdentityAndHealthToToolApi) {
  // A registered backend must receive the final metadata dump and health
  // counters when the facade shuts the session down (paper §6: the tool
  // API is how AMD uProf / Score-P-style consumers see ZeroSum data).
  auto backend = std::make_shared<RecordingBackend>();
  ToolApi::instance().registerBackend(backend);

  core::Config cfg;
  cfg.period = std::chrono::milliseconds(50);
  cfg.signalHandler = false;
  cfg.csvExport = false;
  cfg.monitorGpu = false;
  cfg.logPrefix =
      (std::filesystem::temp_directory_path() / "zs_finalize_test").string();
  core::ProcessIdentity identity;
  identity.rank = 7;
  identity.hostname = "flushhost";
  zerosum::initialize(cfg, identity);
  const std::string report = zerosum::finalize();
  ToolApi::instance().deregisterBackend();
  EXPECT_FALSE(report.empty());
  EXPECT_FALSE(zerosum::initialized());

  const auto metadata = backend->metadataMap();
  EXPECT_EQ(metadata.at("rank"), "7");
  EXPECT_EQ(metadata.at("hostname"), "flushhost");
  EXPECT_EQ(metadata.count("pid"), 1u);
  EXPECT_EQ(metadata.at("period_ms"), "50");

  const auto counters = backend->counters();
  ASSERT_EQ(counters.count("zs.samples_taken"), 1u);
  // stop() always takes a final sample, so at least one was recorded.
  EXPECT_GE(counters.at("zs.samples_taken").back(), 1.0);
  EXPECT_EQ(counters.count("zs.samples_dropped"), 1u);
  EXPECT_EQ(counters.count("zs.loop_overruns"), 1u);

  // Clean up the log file finalize wrote under the temp prefix.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("zs_finalize_test.", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
}

}  // namespace
}  // namespace zerosum::exporter
