// Export-surface and flight-recorder tests (src/obs/export.*,
// request_context.*, flight_recorder.*): a golden-format check of the
// Prometheus text exposition writer, snapshot-during-writes histogram
// exactness (`_count` == Σ `_bucket` even mid-hammer), request-scope
// nesting/propagation, the audit ring, and a death test asserting the
// GEOALIGN_CHECK dump parses and names the in-flight request.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "io/json.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"

namespace geoalign {
namespace {

// Saves/restores the global telemetry switch and leaves the registry
// and flight recorder clean so tests compose in any order.
class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = obs::Enabled();
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().ResetAll();
    obs::FlightRecorder::Global().Clear();
  }
  void TearDown() override {
    obs::FlightRecorder::Global().Clear();
    obs::MetricsRegistry::Global().ResetAll();
    obs::SetEnabled(saved_enabled_);
  }

 private:
  bool saved_enabled_ = false;
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST_F(ObsExportTest, ParseMetricsFormatAcceptsKnownNames) {
  obs::MetricsFormat fmt = obs::MetricsFormat::kText;
  EXPECT_TRUE(obs::ParseMetricsFormat("prom", &fmt));
  EXPECT_EQ(fmt, obs::MetricsFormat::kPrometheus);
  EXPECT_TRUE(obs::ParseMetricsFormat("prometheus", &fmt));
  EXPECT_EQ(fmt, obs::MetricsFormat::kPrometheus);
  EXPECT_TRUE(obs::ParseMetricsFormat("json", &fmt));
  EXPECT_EQ(fmt, obs::MetricsFormat::kJson);
  EXPECT_TRUE(obs::ParseMetricsFormat("text", &fmt));
  EXPECT_EQ(fmt, obs::MetricsFormat::kText);
  fmt = obs::MetricsFormat::kJson;
  EXPECT_FALSE(obs::ParseMetricsFormat("yaml", &fmt));
  EXPECT_EQ(fmt, obs::MetricsFormat::kJson);  // untouched on failure
}

// The load-bearing golden test: byte-exact exposition output for a
// registry with one counter, one gauge, and one histogram. Pins HELP
// and TYPE lines, name sanitization, cumulative bucket derivation from
// the registry's per-bucket counts, the +Inf bucket, and _sum/_count.
TEST_F(ObsExportTest, PrometheusGoldenFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("compile.count").Add(3);
  registry.GetGauge("pool.size").Set(-2);
  obs::Histogram& hist =
      registry.GetHistogram("exec.latency_us", {1.0, 2.0, 5.0});
  hist.Record(0.5);   // bucket le=1
  hist.Record(3.0);   // bucket le=5
  hist.Record(100.0); // overflow bucket
  const std::string got = obs::ToPrometheusText(registry.Snapshot());
  const std::string want =
      "# HELP geoalign_compile_count geoalign metric compile.count\n"
      "# TYPE geoalign_compile_count counter\n"
      "geoalign_compile_count 3\n"
      "# HELP geoalign_pool_size geoalign metric pool.size\n"
      "# TYPE geoalign_pool_size gauge\n"
      "geoalign_pool_size -2\n"
      "# HELP geoalign_exec_latency_us geoalign metric exec.latency_us\n"
      "# TYPE geoalign_exec_latency_us histogram\n"
      "geoalign_exec_latency_us_bucket{le=\"1\"} 1\n"
      "geoalign_exec_latency_us_bucket{le=\"2\"} 1\n"
      "geoalign_exec_latency_us_bucket{le=\"5\"} 2\n"
      "geoalign_exec_latency_us_bucket{le=\"+Inf\"} 3\n"
      "geoalign_exec_latency_us_sum 103.5\n"
      "geoalign_exec_latency_us_count 3\n";
  EXPECT_EQ(got, want);
}

TEST_F(ObsExportTest, PrometheusSanitizesNamesAndEscapesHelp) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ratio.dm/geo\\check").Add(1);
  const std::string got = obs::ToPrometheusText(registry.Snapshot());
  // Invalid characters become '_' in the metric name; the HELP text
  // keeps the original spelling with the backslash escaped.
  EXPECT_EQ(got,
            "# HELP geoalign_ratio_dm_geo_check geoalign metric "
            "ratio.dm/geo\\\\check\n"
            "# TYPE geoalign_ratio_dm_geo_check counter\n"
            "geoalign_ratio_dm_geo_check 1\n");
}

TEST_F(ObsExportTest, JsonLineHasNoNewlinesAndParses) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count").Add(7);
  registry.GetHistogram("b.latency_us", {1.0, 10.0}).Record(4.0);
  const std::string line = obs::ToJsonLine(registry.Snapshot());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = io::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto counters = parsed->Get("counters");
  ASSERT_TRUE(counters.ok());
  auto a = (*counters)->Get("a.count");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->AsNumber().value(), 7.0);
}

// Snapshots taken while writer threads are mid-Record must still obey
// `count == Σ bucket_counts` (the exporter's `_count == Σ _bucket`
// invariant) — this holds by construction since the histogram derives
// its count from the same bucket reads.
TEST_F(ObsExportTest, SnapshotDuringWritesKeepsHistogramCountExact) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist =
      registry.GetHistogram("hammer.latency_us", {1.0, 2.0, 5.0, 10.0});
  obs::Counter& counter = registry.GetCounter("hammer.count");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>((i + static_cast<uint64_t>(t)) % 12));
        counter.Add();
      }
    });
  }
  start.store(true, std::memory_order_release);

  uint64_t last_count = 0;
  for (int round = 0; round < 50; ++round) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const obs::HistogramSnapshot& h = snap.histograms[0];
    uint64_t bucket_total = 0;
    for (uint64_t b : h.bucket_counts) bucket_total += b;
    // Exact mid-hammer: the derived count IS the bucket sum.
    ASSERT_EQ(h.count, bucket_total);
    // Counts only grow across snapshots.
    ASSERT_GE(h.count, last_count);
    last_count = h.count;
    // And the rendered exposition agrees with itself: the +Inf bucket
    // line and the _count line carry the same number.
    const std::string prom = obs::ToPrometheusText(snap);
    const std::string inf_line =
        "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    const std::string count_line =
        "_count " + std::to_string(h.count) + "\n";
    EXPECT_NE(prom.find(inf_line), std::string::npos);
    EXPECT_NE(prom.find(count_line), std::string::npos);
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(hist.Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
}

TEST_F(ObsExportTest, RequestScopeGeneratesAndRestoresIdentity) {
  EXPECT_EQ(obs::CurrentRequestSeq(), 0u);
  {
    obs::RequestScope outer("outer-req");
    EXPECT_STREQ(obs::CurrentRequest().id, "outer-req");
    EXPECT_EQ(obs::CurrentRequestSeq(), outer.seq());
    {
      obs::RequestScope inner;
      EXPECT_EQ(std::string(inner.id()).rfind("req-", 0), 0u);
      EXPECT_STREQ(obs::CurrentRequest().id, inner.id());
      EXPECT_GT(inner.seq(), outer.seq());
    }
    // Inner scope exit restores the outer identity.
    EXPECT_STREQ(obs::CurrentRequest().id, "outer-req");
  }
  EXPECT_EQ(obs::CurrentRequestSeq(), 0u);
}

TEST_F(ObsExportTest, RequestScopeTruncatesLongIds) {
  const std::string long_id(80, 'x');
  obs::RequestScope scope(long_id);
  EXPECT_EQ(std::strlen(scope.id()), obs::RequestToken::kMaxIdLength);
  EXPECT_EQ(std::string(scope.id()),
            long_id.substr(0, obs::RequestToken::kMaxIdLength));
}

// A propagated scope (pool-worker pattern) carries the originating
// identity but does not add a second in-flight registration.
TEST_F(ObsExportTest, RequestScopePropagationSharesOneInFlightSlot) {
  obs::RequestScope origin("propagated-req");
  const obs::RequestToken token = obs::CurrentRequest();
  std::thread worker([token] {
    obs::RequestScope scope(token);
    EXPECT_STREQ(obs::CurrentRequest().id, "propagated-req");
    char ids[16][obs::RequestToken::kMaxIdLength + 1];
    const size_t n = obs::internal::SnapshotInFlightRequests(ids, 16);
    size_t matches = 0;
    for (size_t i = 0; i < n; ++i) {
      if (std::strcmp(ids[i], "propagated-req") == 0) ++matches;
    }
    EXPECT_EQ(matches, 1u);  // origin's slot only, not the worker's
  });
  worker.join();
}

TEST_F(ObsExportTest, FlightRecorderStampsAndCollectsInOrder) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  obs::RequestScope scope("ring-req");
  for (int i = 0; i < 5; ++i) {
    obs::AuditRecord r;
    std::snprintf(r.mode, sizeof(r.mode), "fused");
    r.rows = static_cast<uint64_t>(i);
    recorder.Record(r);
  }
  const std::vector<obs::AuditRecord> got = recorder.Collect();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(recorder.TotalRecorded(), 5u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i + 1);
    EXPECT_EQ(got[i].rows, i);
    EXPECT_STREQ(got[i].request_id, "ring-req");
    EXPECT_EQ(got[i].request_seq, scope.seq());
    EXPECT_STREQ(got[i].mode, "fused");
  }
}

TEST_F(ObsExportTest, FlightRecorderRingKeepsNewestOnWrap) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const size_t total = obs::FlightRecorder::kCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    obs::AuditRecord r;
    r.rows = i;
    recorder.Record(r);
  }
  const std::vector<obs::AuditRecord> got = recorder.Collect();
  ASSERT_EQ(got.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(recorder.TotalRecorded(), total);
  // Oldest surviving record is the (total - capacity + 1)-th.
  EXPECT_EQ(got.front().seq, total - obs::FlightRecorder::kCapacity + 1);
  EXPECT_EQ(got.back().seq, total);
}

// A reader racing a writer that laps the ring either skips a slot or
// copies one whole record, never a mix of an old and a new one.
TEST_F(ObsExportTest, FlightRecorderCollectDuringRecordNeverTears) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  constexpr uint64_t kRecords = 500 * obs::FlightRecorder::kCapacity;
  std::atomic<bool> done{false};
  std::thread writer([&recorder, &done] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      obs::AuditRecord r;
      r.rows = i;
      r.latency_us = i * 7 + 3;
      r.zero_rows = ~i;
      recorder.Record(r);
    }
    done.store(true, std::memory_order_release);
  });
  size_t collected = 0;
  size_t torn = 0;
  while (!done.load(std::memory_order_acquire)) {
    for (const obs::AuditRecord& r : recorder.Collect()) {
      ++collected;
      if (r.latency_us != r.rows * 7 + 3 || r.zero_rows != ~r.rows ||
          r.seq != r.rows + 1) {
        ++torn;
      }
    }
  }
  writer.join();
  EXPECT_EQ(torn, 0u) << "of " << collected << " collected records";
  EXPECT_EQ(recorder.Collect().size(), obs::FlightRecorder::kCapacity);
}

// The fields of a stress-test record, all derived from one value `v`
// its writer picks, so a record stitched from two writers' words fails
// RecordIsWhole.
obs::AuditRecord MakeDerivedRecord(uint64_t v) {
  obs::AuditRecord r;
  r.plan_fingerprint = v;
  r.panel_width = static_cast<uint32_t>(v * 3);
  r.isa = static_cast<uint32_t>(v >> 32);
  r.rows = v * 0x9E3779B97F4A7C15ULL;
  r.latency_us = ~v;
  r.zero_rows = v ^ 0x5555555555555555ULL;
  r.fallback = static_cast<uint32_t>(v + 1);
  r.ok = static_cast<uint32_t>(v >> 7);
  return r;
}

bool RecordIsWhole(const obs::AuditRecord& r) {
  const obs::AuditRecord want = MakeDerivedRecord(r.plan_fingerprint);
  return r.panel_width == want.panel_width && r.isa == want.isa &&
         r.rows == want.rows && r.latency_us == want.latency_us &&
         r.zero_rows == want.zero_rows && r.fallback == want.fallback &&
         r.ok == want.ok;
}

// Writers lapping one another: with more writers than cores, some are
// preempted mid-record while the rest go round the ring, so writers
// whose ordinals are kCapacity apart race for one slot. Neither a
// concurrent Collect nor the one after the writers stop may ever
// return a torn record. Short rounds, because a writer preempted
// mid-record when its round stops resumes last and, without a slot
// claim, publishes a record it interleaved with the lapping writers.
TEST_F(ObsExportTest, FlightRecorderLappingWritersNeverTear) {
  constexpr uint64_t kWriters = 16;
  constexpr int kRounds = 20;
  auto recorder = std::make_unique<obs::FlightRecorder>();
  size_t collected = 0;
  size_t torn = 0;
  auto check = [&](const std::vector<obs::AuditRecord>& records) {
    for (const obs::AuditRecord& r : records) {
      ++collected;
      if (!RecordIsWhole(r)) ++torn;
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    recorder->Clear();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (uint64_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&recorder, &stop, w] {
        for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
          recorder->Record(MakeDerivedRecord((w << 48) | n));
        }
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (std::chrono::steady_clock::now() < deadline) {
      check(recorder->Collect());
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : writers) t.join();
    const std::vector<obs::AuditRecord> final_records = recorder->Collect();
    EXPECT_EQ(final_records.size(), obs::FlightRecorder::kCapacity);
    check(final_records);
  }
  EXPECT_EQ(torn, 0u) << "of " << collected << " collected records";
}

TEST_F(ObsExportTest, FlightRecorderDumpIsParseableJsonl) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  obs::RequestScope scope("dump-req");
  obs::AuditRecord r;
  std::snprintf(r.mode, sizeof(r.mode), "panel");
  r.plan_fingerprint = 0xdeadbeefULL;
  r.panel_width = 8;
  recorder.Record(r);
  const std::string path = ::testing::TempDir() + "geoalign_fr_demand.jsonl";
  std::string error;
  ASSERT_TRUE(recorder.DumpToFile(path, "demand", &error)) << error;

  const std::vector<std::string> lines = SplitLines(ReadFileOrDie(path));
  ASSERT_GE(lines.size(), 3u);  // header, >= 1 audit, metrics
  bool saw_audit = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = io::ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << "line " << i << ": "
                             << parsed.status().ToString();
    const std::string type = (*parsed->Get("type"))->AsString().value();
    if (i == 0) {
      ASSERT_EQ(type, "header");
      EXPECT_EQ((*parsed->Get("reason"))->AsString().value(), "demand");
      const io::JsonValue& in_flight = **parsed->Get("in_flight");
      ASSERT_EQ(in_flight.size(), 1u);
      EXPECT_EQ(in_flight[0].AsString().value(), "dump-req");
    } else if (type == "audit") {
      saw_audit = true;
      EXPECT_EQ((*parsed->Get("request_id"))->AsString().value(),
                "dump-req");
      EXPECT_EQ((*parsed->Get("fingerprint"))->AsString().value(),
                "0xdeadbeef");
      EXPECT_EQ((*parsed->Get("mode"))->AsString().value(), "panel");
      EXPECT_EQ((*parsed->Get("panel_width"))->AsNumber().value(), 8.0);
    } else {
      ASSERT_EQ(type, "metrics");
      EXPECT_TRUE(parsed->Has("snapshot"));
    }
  }
  EXPECT_TRUE(saw_audit);
  std::remove(path.c_str());
}

// Death test: a GEOALIGN_CHECK failure must leave a parseable dump
// that names the in-flight request — the whole point of the recorder.
TEST_F(ObsExportTest, CheckFailureDumpNamesInFlightRequest) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "geoalign_fr_fatal.jsonl";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        obs::SetFlightRecorderDumpPath(path);
        obs::RequestScope scope("death-req-7");
        obs::AuditRecord r;
        std::snprintf(r.mode, sizeof(r.mode), "fused");
        obs::FlightRecorder::Global().Record(r);
        GEOALIGN_CHECK(false) << "flight recorder death test";
      },
      "Check failed: false");

  const std::vector<std::string> lines = SplitLines(ReadFileOrDie(path));
  ASSERT_GE(lines.size(), 2u);
  bool named_in_flight = false;
  bool named_in_audit = false;
  for (const std::string& line : lines) {
    auto parsed = io::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::string type = (*parsed->Get("type"))->AsString().value();
    if (type == "header") {
      EXPECT_EQ((*parsed->Get("reason"))->AsString().value(), "fatal");
      for (const io::JsonValue& id : (*parsed->Get("in_flight"))->items()) {
        if (id.AsString().value() == "death-req-7") named_in_flight = true;
      }
    } else if (type == "audit") {
      if ((*parsed->Get("request_id"))->AsString().value() ==
          "death-req-7") {
        named_in_audit = true;
      }
    }
  }
  EXPECT_TRUE(named_in_flight);
  EXPECT_TRUE(named_in_audit);
  std::remove(path.c_str());
}

// Crash-path death test: the installed SIGSEGV handler writes the
// signal-safe dump before the default disposition kills the process.
TEST_F(ObsExportTest, CrashHandlerDumpSurvivesFatalSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "geoalign_fr_crash.jsonl";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        obs::SetFlightRecorderDumpPath(path);
        obs::InstallCrashHandlers();
        obs::RequestScope scope("crash-req");
        obs::AuditRecord r;
        std::snprintf(r.mode, sizeof(r.mode), "panel");
        obs::FlightRecorder::Global().Record(r);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");

  const std::vector<std::string> lines = SplitLines(ReadFileOrDie(path));
  ASSERT_GE(lines.size(), 2u);
  auto header = io::ParseJson(lines[0]);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ((*header->Get("reason"))->AsString().value(), "signal");
  bool named = false;
  for (const io::JsonValue& id : (*header->Get("in_flight"))->items()) {
    if (id.AsString().value() == "crash-req") named = true;
  }
  EXPECT_TRUE(named);
  auto audit = io::ParseJson(lines[1]);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ((*audit->Get("request_id"))->AsString().value(), "crash-req");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geoalign
