// The self-observability layer: ring-buffer recorder, metrics registry,
// Chrome trace export, overhead attribution, and the JSON support they
// ride on.  The monitor-integration tests at the bottom assert the
// acceptance shape: a traced sampling session produces spans for all five
// sampling subsystems.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/selfprofile.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/monitor.hpp"
#include "gpu/simulated.hpp"
#include "procfs/faultfs.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"
#include "trace/chrome_export.hpp"
#include "trace/metrics.hpp"
#include "trace/prometheus.hpp"

namespace zerosum {
namespace {

/// Every test starts from a clean recorder + registry; the singletons are
/// process-global, so isolation is explicit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceRecorder::instance().reset();
    trace::MetricsRegistry::instance().reset();
    trace::TraceRecorder::instance().enable();
  }
  void TearDown() override {
    trace::TraceRecorder::instance().disable();
    trace::TraceRecorder::instance().reset();
    trace::MetricsRegistry::instance().reset();
  }
};

// --- ThreadRing: the hot-path allocation contract ------------------------

TEST(ThreadRing, NeverGrowsAfterConstruction) {
  trace::detail::ThreadRing ring(42, 16);
  trace::Event e;
  e.name = "x";
  e.kind = trace::EventKind::kInstant;
  // 3x capacity: the ring must wrap (counting the overwrites), never grow.
  for (int i = 0; i < 48; ++i) {
    e.seq = ring.nextSeq();
    e.startNanos = static_cast<std::uint64_t>(i);
    ring.push(e);
  }
  const trace::RingStats stats = ring.stats();
  EXPECT_EQ(stats.tid, 42);
  EXPECT_EQ(stats.capacity, 16u);
  EXPECT_EQ(stats.recorded, 48u);
  EXPECT_EQ(stats.overwritten, 32u);
  const auto events = ring.drainCopy();
  ASSERT_EQ(events.size(), 16u);
  // Oldest surviving first: events 32..47.
  EXPECT_EQ(events.front().startNanos, 32u);
  EXPECT_EQ(events.back().startNanos, 47u);
}

TEST_F(TraceTest, RecorderRingStaysAtWarmupCapacityUnderWrap) {
  auto& rec = trace::TraceRecorder::instance();
  const std::size_t capacity = rec.ringCapacity();
  // First event allocates this thread's ring (the warm-up)...
  rec.instant("warmup");
  const trace::RingStats warm = rec.thisThreadRingStats();
  EXPECT_EQ(warm.capacity, capacity);
  // ...after which pushing far past capacity must not change it.
  for (std::size_t i = 0; i < 3 * capacity; ++i) {
    rec.instant("flood");
  }
  const trace::RingStats after = rec.thisThreadRingStats();
  EXPECT_EQ(after.capacity, capacity);
  EXPECT_EQ(after.recorded, 3 * capacity + 1);
  EXPECT_EQ(after.overwritten, 2 * capacity + 1);
  EXPECT_EQ(rec.snapshot().size(), capacity);
}

// --- Recorder semantics ---------------------------------------------------

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  auto& rec = trace::TraceRecorder::instance();
  rec.disable();
  { ZS_TRACE_SCOPE("zs.test.span"); }
  ZS_TRACE_INSTANT("zs.test.instant");
  ZS_TRACE_COUNTER("zs.test.counter", 1.0);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.enable();
  { ZS_TRACE_SCOPE("zs.test.span"); }
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST_F(TraceTest, ScopedSpanRecordsNameKindAndFeedsHistogram) {
  { ZS_TRACE_SCOPE("zs.test.work"); }
  const auto events = trace::TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "zs.test.work");
  EXPECT_EQ(events[0].kind, trace::EventKind::kSpan);
  // The span also lands in the registry, so full-run statistics survive
  // ring wrap.
  const auto acc =
      trace::MetricsRegistry::instance().histogram("zs.test.work")
          .accumulator();
  EXPECT_EQ(acc.count(), 1u);
}

TEST_F(TraceTest, CounterEventCarriesValue) {
  ZS_TRACE_COUNTER("zs.test.gauge", 7.5);
  const auto events = trace::TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, trace::EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[0].value, 7.5);
}

TEST_F(TraceTest, MultipleThreadsRecordIntoSeparateRings) {
  auto& rec = trace::TraceRecorder::instance();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        rec.instant("zs.test.mt");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const auto events = rec.snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kEventsPerThread));
  std::set<int> tids;
  for (const auto& e : events) {
    tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  // Snapshot is globally sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].startNanos, events[i].startNanos);
  }
}

TEST_F(TraceTest, InternedNamesAreStableAndReusable) {
  auto& rec = trace::TraceRecorder::instance();
  const std::string dynamic = "zs.test." + std::to_string(123);
  const char* name = rec.intern(dynamic);
  rec.instant(name);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "zs.test.123");
}

// --- Metrics registry -----------------------------------------------------

TEST_F(TraceTest, RegistryCountsGaugesAndHistograms) {
  auto& reg = trace::MetricsRegistry::instance();
  reg.counter("c").add();
  reg.counter("c").add(4);
  reg.gauge("g").set(2.5);
  reg.histogram("h").observe(1.0);
  reg.histogram("h").observe(3.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // sorted by name: c, g, h
  EXPECT_EQ(snap[0].name, "c");
  EXPECT_EQ(snap[0].kind, trace::MetricKind::kCounter);
  EXPECT_EQ(snap[0].count, 5u);
  EXPECT_EQ(snap[1].name, "g");
  EXPECT_DOUBLE_EQ(snap[1].value, 2.5);
  EXPECT_EQ(snap[2].name, "h");
  EXPECT_EQ(snap[2].histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(snap[2].histogram.mean(), 2.0);
  EXPECT_DOUBLE_EQ(snap[2].histogram.max(), 3.0);
}

TEST_F(TraceTest, RegistryKindMismatchThrows) {
  auto& reg = trace::MetricsRegistry::instance();
  reg.counter("zs.test.metric");
  EXPECT_THROW(reg.gauge("zs.test.metric"), StateError);
  EXPECT_THROW(reg.histogram("zs.test.metric"), StateError);
}

TEST_F(TraceTest, HandlesHaveStableAddresses) {
  auto& reg = trace::MetricsRegistry::instance();
  trace::Counter* first = &reg.counter("stable");
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("stable"), first);
}

TEST_F(TraceTest, SelfProfileSectionRendersSpanStatistics) {
  { ZS_TRACE_SCOPE("zs.test.section"); }
  const std::string section = trace::renderSelfProfile();
  EXPECT_NE(section.find("Monitor self-profile"), std::string::npos);
  EXPECT_NE(section.find("zs.test.section"), std::string::npos);
}

// --- Chrome trace export --------------------------------------------------

TEST_F(TraceTest, ChromeExportIsValidJsonWithAllEventPhases) {
  auto& rec = trace::TraceRecorder::instance();
  { ZS_TRACE_SCOPE("zs.test.span"); }
  rec.instant("zs.test.instant");
  rec.counter("zs.test.counter", 42.0);

  std::ostringstream out;
  trace::writeChromeTrace(out, rec.snapshot(), "unit-test",
                          {{"rank", "0"}, {"hostname", "testhost"}});
  const json::Value doc = json::parse(out.str());  // throws if malformed
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // process_name metadata record + the three events.
  ASSERT_EQ(events->asArray().size(), 4u);
  std::set<std::string> phases;
  std::set<std::string> names;
  for (const auto& e : events->asArray()) {
    phases.insert(e.stringOr("ph", ""));
    names.insert(e.stringOr("name", ""));
  }
  EXPECT_EQ(phases, (std::set<std::string>{"M", "X", "i", "C"}));
  EXPECT_TRUE(names.count("zs.test.span"));
  const json::Value* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->stringOr("hostname", ""), "testhost");
}

TEST_F(TraceTest, ChromeExportFileRoundTrip) {
  { ZS_TRACE_SCOPE("zs.test.file"); }
  const std::string path = ::testing::TempDir() + "zs_trace_roundtrip.json";
  const std::size_t written =
      trace::writeChromeTraceFile(path, "zerosum", {{"rank", "3"}});
  EXPECT_EQ(written, 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  EXPECT_EQ(doc.find("otherData")->stringOr("rank", ""), "3");
  std::remove(path.c_str());
}

TEST_F(TraceTest, ChromeExportUnwritablePathThrows) {
  EXPECT_THROW(
      trace::writeChromeTraceFile("/nonexistent/dir/trace.json", "x", {}),
      StateError);
}

// --- JSON writer/parser ---------------------------------------------------

TEST(Json, WriterEscapesAndNests) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject();
  w.field("s", "a\"b\\c\n\t");
  w.key("arr").beginArray().value(std::int64_t{1}).value(2.5).value(true)
      .null().endArray();
  w.endObject();
  EXPECT_EQ(w.depth(), 0);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.find("s")->asString(), "a\"b\\c\n\t");
  ASSERT_EQ(doc.find("arr")->asArray().size(), 4u);
  EXPECT_DOUBLE_EQ(doc.find("arr")->asArray()[1].asNumber(), 2.5);
  EXPECT_TRUE(doc.find("arr")->asArray()[3].isNull());
}

TEST(Json, WriterMisuseThrows) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject();
  EXPECT_THROW(w.value(1.0), StateError);  // value without a key
  EXPECT_THROW(w.endArray(), StateError);  // mismatched container
}

TEST(Json, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(json::parse(""), ParseError);
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1,}"), ParseError);
  EXPECT_THROW(json::parse("[1, 2] garbage"), ParseError);
  EXPECT_THROW(json::parse("nul"), ParseError);
}

TEST(Json, ParserLimitsContainerNesting) {
  // The parser accepts documents up to 64 container levels and refuses
  // anything deeper — it is fed untrusted bytes by the aggregation
  // query service, and unbounded recursion would be a stack overflow.
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(json::parse(nested(64)));
  EXPECT_THROW(json::parse(nested(65)), ParseError);
  // Mixed object/array nesting counts the same way.
  std::string mixed = "1";
  for (int i = 0; i < 40; ++i) {
    mixed = "{\"k\":[" + mixed + "]}";  // two levels per wrap
  }
  EXPECT_THROW(json::parse(mixed), ParseError);
}

TEST(Json, DuplicateObjectKeysLastOneWins) {
  const json::Value doc = json::parse(R"({"a": 1, "b": 2, "a": 3})");
  EXPECT_DOUBLE_EQ(doc.find("a")->asNumber(), 3.0);
  EXPECT_DOUBLE_EQ(doc.find("b")->asNumber(), 2.0);
  EXPECT_EQ(doc.asObject().size(), 2u);
}

TEST(Json, TrailingGarbageAfterAnyDocumentKindThrows) {
  EXPECT_THROW(json::parse("{} {}"), ParseError);
  EXPECT_THROW(json::parse("123 4"), ParseError);
  EXPECT_THROW(json::parse("\"s\"x"), ParseError);
  EXPECT_THROW(json::parse("true,"), ParseError);
  // Trailing whitespace (including newlines) is fine.
  EXPECT_NO_THROW(json::parse("{\"a\": 1}\n  \t"));
}

namespace {

/// Prints one double through json::Writer and returns the literal.
std::string printedNumber(double v) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginArray().value(v).endArray();
  const std::string s = out.str();  // "[<literal>]"
  return s.substr(1, s.size() - 2);
}

std::uint64_t doubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

TEST(Json, DoublesPrintShortestRoundTripForm) {
  // Shortest form: the fewest digits that parse back exactly — no
  // %.17g padding on representable values.
  EXPECT_EQ(printedNumber(0.1), "0.1");
  EXPECT_EQ(printedNumber(2.5), "2.5");
  EXPECT_EQ(printedNumber(100.0), "100");
  EXPECT_EQ(printedNumber(-0.0), "-0");  // the sign survives
}

TEST(Json, DoubleRoundTripIsBitExact) {
  const std::vector<double> cases = {
      0.0,
      -0.0,
      1e-7,
      -1e-7,
      0.1,
      1.0 / 3.0,
      static_cast<double>((1ULL << 53) - 1),
      static_cast<double>(1ULL << 53),
      static_cast<double>((1ULL << 53) + 1),  // rounds to 2^53; still exact
      9007199254740993.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      -12345.678901234567,
  };
  for (const double v : cases) {
    std::string doc = "[";  // appends: gcc 12 -O3 false -Wrestrict
    doc += printedNumber(v);
    doc += ']';
    const double back = json::parse(doc).asArray()[0].asNumber();
    EXPECT_EQ(doubleBits(back), doubleBits(v)) << "value " << doc;
  }
}

TEST(Json, NonFiniteDoublesPrintAsNull) {
  // JSON has no Infinity/NaN literal; the writer substitutes null
  // rather than emitting an unparseable document.
  EXPECT_EQ(printedNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(printedNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(printedNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_NO_THROW(json::parse(
      "[" + printedNumber(std::numeric_limits<double>::quiet_NaN()) + "]"));
}

// --- Overhead attribution -------------------------------------------------

trace::Event span(const char* name, std::uint64_t startUs,
                  std::uint64_t durUs, int tid = 1) {
  trace::Event e;
  e.name = name;
  e.kind = trace::EventKind::kSpan;
  e.startNanos = startUs * 1000;
  e.durationNanos = durUs * 1000;
  e.tid = tid;
  return e;
}

TEST(SelfProfile, SharesSumToLoopTotal) {
  // Two loop iterations with nested subsystem spans and slack.
  const std::vector<trace::Event> events = {
      span("zs.sample", 0, 100),
      span("zs.sample.lwp", 10, 30),
      span("zs.sample.hwt", 50, 20),
      span("zs.sample", 200, 100),
      span("zs.sample.lwp", 210, 40),
      span("zs.report", 400, 50),  // outside any loop iteration
  };
  const auto profile = analysis::attributeOverhead(events);
  EXPECT_EQ(profile.loopCount, 2u);
  EXPECT_DOUBLE_EQ(profile.loopTotalMicros, 200.0);
  double sum = 0.0;
  double shareSum = 0.0;
  for (const auto& s : profile.shares) {
    sum += s.totalMicros;
    shareSum += s.shareOfLoop;
  }
  EXPECT_DOUBLE_EQ(sum, profile.loopTotalMicros);
  EXPECT_NEAR(shareSum, 1.0, 1e-12);
  // lwp 70us, hwt 20us, bookkeeping 110us.
  ASSERT_EQ(profile.shares.size(), 3u);
  EXPECT_EQ(profile.shares[0].name, "(bookkeeping)");
  EXPECT_DOUBLE_EQ(profile.shares[0].totalMicros, 110.0);
  EXPECT_EQ(profile.shares[1].name, "zs.sample.lwp");
  EXPECT_DOUBLE_EQ(profile.shares[1].totalMicros, 70.0);
  ASSERT_EQ(profile.outsideLoop.size(), 1u);
  EXPECT_EQ(profile.outsideLoop[0].name, "zs.report");
}

TEST(SelfProfile, GrandchildSpansAreNotDoubleCounted) {
  const std::vector<trace::Event> events = {
      span("zs.sample", 0, 100),
      span("zs.export.callback", 10, 60),
      span("zs.export.publish", 20, 40),  // child of callback, not of loop
  };
  const auto profile = analysis::attributeOverhead(events);
  double sum = 0.0;
  for (const auto& s : profile.shares) {
    sum += s.totalMicros;
  }
  EXPECT_DOUBLE_EQ(sum, 100.0);
  ASSERT_EQ(profile.shares.size(), 2u);  // callback + bookkeeping
  EXPECT_EQ(profile.shares[0].name, "zs.export.callback");
  EXPECT_DOUBLE_EQ(profile.shares[0].totalMicros, 60.0);
}

TEST(SelfProfile, EmptyEventsProduceEmptyProfile) {
  const auto profile = analysis::attributeOverhead({});
  EXPECT_EQ(profile.loopCount, 0u);
  EXPECT_DOUBLE_EQ(profile.loopTotalMicros, 0.0);
  const std::string rendered = analysis::renderAttribution(profile);
  EXPECT_NE(rendered.find("overhead attribution"), std::string::npos);
}

TEST_F(TraceTest, AttributionFromChromeTraceRoundTrip) {
  {
    ZS_TRACE_SCOPE("zs.sample");
    ZS_TRACE_SCOPE("zs.sample.lwp");
  }
  std::ostringstream out;
  trace::writeChromeTrace(out, trace::TraceRecorder::instance().snapshot(),
                          "zerosum", {});
  const auto profile = analysis::attributeOverheadFromChromeTrace(out.str());
  EXPECT_EQ(profile.loopCount, 1u);
  bool sawLwp = false;
  for (const auto& s : profile.shares) {
    sawLwp |= s.name == "zs.sample.lwp";
  }
  EXPECT_TRUE(sawLwp);
  const std::string rendered = analysis::renderAttribution(profile);
  EXPECT_NE(rendered.find("zs.sample.lwp"), std::string::npos);
}

// --- Monitor integration --------------------------------------------------

TEST_F(TraceTest, TracedSessionEmitsSpansForAllFiveSubsystems) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("0-1"));
  sim::Behavior b;
  b.iterations = 5;
  b.iterWorkJiffies = 50;
  node.spawnTask(pid, "app", LwpType::kMain, b);

  core::Config cfg;
  cfg.period = std::chrono::milliseconds(1000);
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  cfg.trace = true;
  auto device = std::make_shared<gpu::SimulatedGpu>(0, 4, "gcd");
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node), {},
                               {device});
  for (int i = 1; i <= 3; ++i) {
    device->setActivity(0.5);
    device->advance(1.0);
    node.advance(sim::kHz);
    session.sampleNow(i);
  }

  std::set<std::string> names;
  for (const auto& e : trace::TraceRecorder::instance().snapshot()) {
    if (e.kind == trace::EventKind::kSpan) {
      names.insert(e.name);
    }
  }
  for (const char* expected :
       {"zs.sample", "zs.sample.lwp", "zs.sample.hwt", "zs.sample.memory",
        "zs.sample.gpu", "zs.sample.progress"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }

  // The report carries the self-profile section when tracing is on,
  // with the history footprint that the per-period counter also carries.
  const std::string report = session.report();
  EXPECT_NE(report.find("Monitor self-profile"), std::string::npos);
  EXPECT_NE(report.find("Sample history: " +
                        std::to_string(session.historyBytes()) +
                        " bytes retained"),
            std::string::npos);
  double lastHistory = 0.0;
  for (const auto& e : trace::TraceRecorder::instance().snapshot()) {
    if (e.kind == trace::EventKind::kCounter &&
        std::string(e.name) == "zs.monitor.history_bytes") {
      lastHistory = e.value;
    }
  }
  EXPECT_GT(lastHistory, 0.0);
  EXPECT_LE(lastHistory, static_cast<double>(session.historyBytes()));

  // And the attribution over the real recorded events keeps its invariant.
  const auto profile =
      analysis::attributeOverhead(trace::TraceRecorder::instance().snapshot());
  EXPECT_EQ(profile.loopCount, 3u);
  double sum = 0.0;
  for (const auto& s : profile.shares) {
    sum += s.totalMicros;
  }
  EXPECT_NEAR(sum, profile.loopTotalMicros, 1e-6);
}

TEST_F(TraceTest, QuarantineEmitsFaultInstantEvents) {
  sim::SimNode node(CpuSet::fromList("0-1"), 2ULL << 30);
  const sim::Pid pid = node.spawnProcess("app", CpuSet::fromList("0"));
  sim::Behavior b;
  b.iterations = 10;
  b.iterWorkJiffies = 50;
  node.spawnTask(pid, "app", LwpType::kMain, b);

  core::Config cfg;
  cfg.period = std::chrono::milliseconds(1000);
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  cfg.trace = true;
  cfg.monitorGpu = false;
  cfg.maxConsecutiveErrors = 2;
  cfg.retryBackoffPeriods = 1;
  // Memory reads fail from sample 2 on: the guard quarantines.
  auto fs = std::make_unique<procfs::FaultInjectingProcFs>(
      procfs::makeSimProcFs(node),
      procfs::parseFaultSpec("meminfo:enoent@2.."));
  core::MonitorSession session(cfg, std::move(fs), {});
  for (int i = 1; i <= 6; ++i) {
    node.advance(sim::kHz);
    session.sampleNow(i);
  }
  std::set<std::string> names;
  for (const auto& e : trace::TraceRecorder::instance().snapshot()) {
    if (e.kind == trace::EventKind::kInstant) {
      names.insert(e.name);
    }
  }
  EXPECT_TRUE(names.count("zs.fault.memory.error"));
  EXPECT_TRUE(names.count("zs.fault.memory.quarantine"));
}

// --- Latency histograms ---------------------------------------------------

TEST_F(TraceTest, LatencyHistogramBucketsWithPrometheusLeSemantics) {
  trace::LatencyHistogram h({0.001, 0.01, 0.1});
  h.observe(0.0005);  // below the first bound
  h.observe(0.001);   // exactly on a bound lands in that bucket (le)
  h.observe(0.005);
  h.observe(0.05);
  h.observe(2.0);  // past the last bound: overflow bucket
  const trace::LatencyStats stats = h.stats();
  EXPECT_EQ(stats.count, 5u);
  ASSERT_EQ(stats.counts.size(), 4u);
  EXPECT_EQ(stats.counts[0], 2u);
  EXPECT_EQ(stats.counts[1], 1u);
  EXPECT_EQ(stats.counts[2], 1u);
  EXPECT_EQ(stats.counts[3], 1u);
  EXPECT_DOUBLE_EQ(stats.max, 2.0);
  EXPECT_NEAR(stats.sum, 2.0565, 1e-12);
  EXPECT_NEAR(stats.mean(), 2.0565 / 5.0, 1e-12);
  // Quantiles: the median lives in the first two buckets, the tail is the
  // observed max (overflow has no upper bound to interpolate toward).
  EXPECT_GT(stats.quantile(0.3), 0.0);
  EXPECT_LE(stats.quantile(0.3), 0.001);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(trace::LatencyStats{}.quantile(0.5), 0.0);
}

TEST_F(TraceTest, LatencyHistogramRejectsNonAscendingBounds) {
  EXPECT_THROW(trace::LatencyHistogram({0.1, 0.01}), StateError);
  EXPECT_THROW(trace::LatencyHistogram({0.1, 0.1}), StateError);
}

TEST_F(TraceTest, RegistryLatencyDefaultsAndKindIsolation) {
  auto& reg = trace::MetricsRegistry::instance();
  trace::LatencyHistogram& h = reg.latency("zs.test.lat");
  EXPECT_EQ(h.bounds(), trace::defaultLatencyBoundsSeconds());
  // Same name resolves to the same histogram even with different bounds.
  EXPECT_EQ(&reg.latency("zs.test.lat", {1.0}), &h);
  EXPECT_THROW(reg.counter("zs.test.lat"), StateError);
  EXPECT_THROW(reg.latency("zs.test.lat2", {0.5, 0.1}), StateError);

  h.observe(2e-6);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, trace::MetricKind::kLatency);
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_EQ(snap[0].latency.count, 1u);
}

// --- Prometheus text exposition -------------------------------------------

/// Returns the `_bucket` cumulative values of `metric` in exposition
/// order, asserting each line parses.
std::vector<std::uint64_t> bucketValues(const std::string& text,
                                        const std::string& metric) {
  std::vector<std::uint64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(metric + "_bucket", 0) != 0) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    out.push_back(std::stoull(line.substr(space + 1)));
  }
  return out;
}

TEST_F(TraceTest, PrometheusExpositionCoversEveryKind) {
  auto& reg = trace::MetricsRegistry::instance();
  reg.counter("zs.test.ops").add(3);
  reg.gauge("zs.test.pressure").set(1.5);
  reg.histogram("zs.test.span").observe(2.0);
  auto& lat = reg.latency("zs.test.wait_seconds", {0.01, 0.1});
  lat.observe(0.005);
  lat.observe(0.05);
  lat.observe(0.5);

  const std::string text = trace::renderPrometheus(
      reg.snapshot(), {{"job", "j1"}, {"role", "daemon"}});
  const std::string labels = "{job=\"j1\",role=\"daemon\"}";
  EXPECT_NE(text.find("# TYPE zs_test_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("zs_test_ops_total" + labels + " 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_test_pressure gauge"), std::string::npos);
  EXPECT_NE(text.find("zs_test_pressure" + labels + " 1.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_test_span summary"), std::string::npos);
  EXPECT_NE(text.find("zs_test_span_count" + labels + " 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_test_wait_seconds histogram"),
            std::string::npos);
  // Buckets are cumulative, monotone, and capped by the +Inf bucket.
  EXPECT_NE(
      text.find("zs_test_wait_seconds_bucket{job=\"j1\",role=\"daemon\","
                "le=\"0.01\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("zs_test_wait_seconds_bucket{job=\"j1\",role=\"daemon\","
                "le=\"+Inf\"} 3"),
      std::string::npos);
  const auto buckets = bucketValues(text, "zs_test_wait_seconds");
  ASSERT_EQ(buckets.size(), 3u);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1], buckets[i]);
  }
  EXPECT_EQ(buckets.back(), 3u);
  EXPECT_NE(text.find("zs_test_wait_seconds_count" + labels + " 3"),
            std::string::npos);

  // Every HELP is followed by its TYPE, and every sample line's metric
  // name stays inside the Prometheus charset.
  std::istringstream in(text);
  std::string line;
  std::string pendingHelp;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      pendingHelp = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_EQ(line.substr(7, line.find(' ', 7) - 7), pendingHelp);
      continue;
    }
    const std::string name = line.substr(0, line.find_first_of("{ "));
    ASSERT_FALSE(name.empty());
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name rune in " << line;
    }
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(name[0])));
  }
}

TEST_F(TraceTest, PrometheusNameSanitizationAndLabelEscaping) {
  EXPECT_EQ(trace::promMetricName("zs.agg.client.latency"),
            "zs_agg_client_latency");
  EXPECT_EQ(trace::promMetricName("9lives"), "_9lives");
  EXPECT_EQ(trace::promMetricName(""), "_");
  EXPECT_EQ(trace::promEscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

  auto& reg = trace::MetricsRegistry::instance();
  reg.counter("zs.total").add(1);  // pre-suffixed: no _total_total
  const std::string text = trace::renderPrometheus(reg.snapshot());
  EXPECT_NE(text.find("zs_total 1"), std::string::npos);
  EXPECT_EQ(text.find("zs_total_total"), std::string::npos);
}

TEST_F(TraceTest, MetricsJsonRoundTripPreservesTheExposition) {
  auto& reg = trace::MetricsRegistry::instance();
  reg.counter("zs.test.ops").add(7);
  reg.gauge("zs.test.g").set(-2.25);
  auto& h = reg.histogram("zs.test.h");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(9.0);
  auto& lat = reg.latency("zs.test.lat_seconds", {0.01, 0.1});
  lat.observe(0.005);
  lat.observe(0.2);

  const auto snap = reg.snapshot();
  std::ostringstream json;
  trace::writeMetricsJson(json, snap);
  const auto parsed = trace::parseMetricsJson(json.str());
  EXPECT_EQ(trace::renderPrometheus(parsed, {{"role", "post"}}),
            trace::renderPrometheus(snap, {{"role", "post"}}));
}

TEST_F(TraceTest, MetricsJsonParseRejectsMalformedDocuments) {
  EXPECT_THROW(trace::parseMetricsJson("{}"), ParseError);
  EXPECT_THROW(trace::parseMetricsJson("{\"metrics\":[{\"name\":\"x\"}]}"),
               ParseError);
  EXPECT_THROW(
      trace::parseMetricsJson(
          "{\"metrics\":[{\"name\":\"x\",\"kind\":\"nope\"}]}"),
      ParseError);
  // Latency counts must be bounds+1.
  EXPECT_THROW(
      trace::parseMetricsJson(
          "{\"metrics\":[{\"name\":\"x\",\"kind\":\"latency\",\"count\":0,"
          "\"sum\":0,\"max\":0,\"bounds\":[0.1],\"counts\":[0]}]}"),
      ParseError);
}

}  // namespace
}  // namespace zerosum
