#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/random.h"
#include "obs/telemetry.h"
#include "sparse/simd/isa.h"

namespace perfbench {

namespace {

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

size_t Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

// The highest percentile with at least ten samples beyond it: the
// 11th-largest sample, at percentile 100 * (n - 10) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) {
    // Too few samples for ten beyond any percentile: report the max.
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

// Closed loop with one caller: `op(i)` runs op i and `check(i)` returns
// whether its output passed. Ops run back to back until `seconds` have
// passed and at least `min_ops` have run. Only `op`'s wall time is
// sampled; `check` runs between ops, untimed.
LoopResult ClosedLoop(double seconds, size_t min_ops,
                      const std::function<void(size_t)>& op,
                      const std::function<bool(size_t)>& check) {
  LoopResult r;
  const double start = NowMs();
  const double end = start + seconds * 1000.0;
  for (size_t i = 0; NowMs() < end || i < min_ops; ++i) {
    const double t0 = NowMs();
    op(i);
    r.op_ms.push_back(NowMs() - t0);
    if (!check(i)) ++r.failed;
  }
  r.wall_s = (NowMs() - start) / 1000.0;
  return r;
}

}  // namespace

size_t BenchThreads() { return std::min<size_t>(4, Nproc()); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb(bool children) {
  struct rusage ru {};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  geoalign::Rng rng(seed, /*stream=*/7);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  return order;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) {
  extras_[name] = {value, unit};
}

void Report::Env(const std::string& key, const std::string& value) {
  env_[key] = JsonString(value);
}

void Report::Env(const std::string& key, double value) {
  env_[key] = JsonNumber(value);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", workload_.c_str(),
               why.c_str());
  failures_.push_back(why);
}

bool Report::Print(bool trace) const {
  // Every per-layer metric is reported; a layer this workload does not
  // exercise reads 0.
  std::map<std::string, Metric> layers(layers_);
  for (const auto& [name, unit] : LayerCatalog()) {
    layers.emplace(name, Metric{0.0, unit});
  }
  auto metrics_json = [](const std::map<std::string, Metric>& m) {
    std::string out = "{";
    for (const auto& [name, metric] : m) {
      if (out.size() > 1) out += ", ";
      double v = std::isfinite(metric.value) ? metric.value : -1.0;
      out += JsonString(name) + ": {\"value\": " + JsonNumber(v) +
             ", \"unit\": " + JsonString(metric.unit) + "}";
    }
    return out + "}";
  };
  auto print_table = [](const char* title,
                        const std::map<std::string, Metric>& m) {
    if (m.empty()) return;
    std::fprintf(stderr, "  %s\n", title);
    for (const auto& [name, metric] : m) {
      std::fprintf(stderr, "    %-38s %16.6g %s\n", name.c_str(),
                   metric.value, metric.unit.c_str());
    }
  };

  std::fprintf(stderr, "perfbench %s (%s run): %s, %zu ops, %zu failed\n",
               workload_.c_str(), trace ? "traced" : "untraced",
               correct() ? "correct" : "INCORRECT", attempted_, failed_);
  print_table("end-to-end", end_to_end_);
  print_table("workload figures", extras_);
  if (trace) print_table("per-layer", layers);
  std::fprintf(stderr, "  environment\n");
  for (const auto& [key, value] : env_) {
    std::fprintf(stderr, "    %-38s %s\n", key.c_str(), value.c_str());
  }

  std::string env = "{";
  for (const auto& [key, value] : env_) {
    if (env.size() > 1) env += ", ";
    env += JsonString(key) + ": " + value;
  }
  env += "}";
  std::string failures = "[";
  for (const std::string& f : failures_) {
    if (failures.size() > 1) failures += ", ";
    failures += JsonString(f);
  }
  failures += "]";
  std::printf(
      "{\"report\": {\"workload\": %s, \"trace\": %s, \"end_to_end\": %s, "
      "\"workload_figures\": %s, \"per_layer\": %s, \"env\": %s, "
      "\"check_failures\": %s}}\n",
      JsonString(workload_).c_str(), trace ? "true" : "false",
      metrics_json(end_to_end_).c_str(), metrics_json(extras_).c_str(),
      metrics_json(trace ? layers : layers_).c_str(), env.c_str(),
      failures.c_str());

  // With a failed check or a non-finite metric the result is incorrect.
  bool finite = true;
  for (const auto& [name, metric] : trace ? layers : end_to_end_) {
    finite = finite && std::isfinite(metric.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct() && finite ? "true" : "false",
              std::max<size_t>(attempted_, 1), failed_,
              metrics_json(trace ? layers : end_to_end_).c_str());
  std::fflush(stdout);
  return correct() && finite;
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"io.read_csv_ms", "ms"},
      {"io.crosswalk_from_table_ms", "ms"},
      {"io.crosswalk_to_table_ms", "ms"},
      {"io.crosswalk_reresolve_ms", "ms"},
      {"io.aggregates_from_table_ms", "ms"},
      {"io.write_csv_ms", "ms"},
      {"io.input_bytes", "bytes"},
      {"cli.other_ms", "ms"},
      {"core.compile_ms", "ms"},
      {"sparse.prepare_ms", "ms"},
      {"core.execute_dm_ms", "ms"},
      {"core.execute_agg_ms", "ms"},
      {"linalg.learn_weights_ms", "ms"},
      {"core.crosswalk_other_ms", "ms"},
      {"core.lane_aligned", "count"},
      {"sparse.ref_nnz", "count"},
      {"sparse.computed_bytes_per_column", "bytes"},
      {"linalg.simplex_iterations", "count"},
      {"execute.hot_path_allocs", "count"},
      {"pipeline.create_ms", "ms"},
      {"pipeline.realign_ms_per_column", "ms"},
      {"pipeline.execute_only_ms_per_column", "ms"},
      {"pipeline.resolve_overhead_ratio", "ratio"},
      {"common.parallel_efficiency", "ratio"},
      {"common.thread_pool_busy_ratio", "ratio"},
      {"partition.prepare_layers_ms", "ms"},
      {"spatial.dual_tree_join_ms", "ms"},
      {"overlay.candidate_pairs", "count"},
      {"partition.cells", "count"},
      {"partition.cell_yield", "ratio"},
      {"overlay.hot_path_allocs", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return catalog;
}

void RecordCommonEnv(const Args& args, Report* report) {
  namespace simd = geoalign::sparse::simd;
  report->Env("nproc", static_cast<double>(Nproc()));
  report->Env("threads", static_cast<double>(BenchThreads()));
  report->Env("isa", simd::IsaName(simd::ActiveIsa()));
  report->Env("build_type", PERFBENCH_BUILD_TYPE);
  report->Env("seed", static_cast<double>(args.seed));
  report->Env("universe_seed", static_cast<double>(kUniverseSeed));
  report->Env("scale", args.scale);
  report->Env("seconds", args.seconds);
  report->Env("setup_reps", static_cast<double>(args.setup_reps));
  report->Env("telemetry_in_timed_ops", args.trace ? "on" : "off");
}

namespace {

void WriteTraceArtifacts(const Args& args) {
  namespace obs = geoalign::obs;
  const std::string path = args.work_dir + "/trace_" + args.workload +
                           "_seed" + std::to_string(args.seed) + ".json";
  std::string error;
  if (!obs::WriteTraceJsonFile(path, &error)) {
    std::fprintf(stderr, "perfbench: trace export failed: %s\n",
                 error.c_str());
  } else {
    std::fprintf(stderr, "perfbench: Chrome trace written to %s\n",
                 path.c_str());
  }

  // Self time: a span's duration minus what its direct children on
  // the same thread cover. Spans come sorted by start; a per-thread
  // stack of open spans finds each span's parent.
  std::vector<obs::SpanEvent> spans = obs::TraceRecorder::Global().Collect();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                     if (a.thread_index != b.thread_index) {
                       return a.thread_index < b.thread_index;
                     }
                     if (a.start_ticks != b.start_ticks) {
                       return a.start_ticks < b.start_ticks;
                     }
                     return a.end_ticks > b.end_ticks;
                   });
  struct Row {
    size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& s = spans[i];
    while (!stack.empty() &&
           (spans[stack.back()].thread_index != s.thread_index ||
            spans[stack.back()].end_ticks <= s.start_ticks)) {
      stack.pop_back();
    }
    const double dur = obs::TicksToMicros(s.end_ticks - s.start_ticks);
    if (!stack.empty()) child_us[stack.back()] += dur;
    stack.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur =
        obs::TicksToMicros(spans[i].end_ticks - spans[i].start_ticks);
    Row& row = rows[spans[i].name];
    ++row.count;
    row.total_us += dur;
    row.self_us += dur - child_us[i];
  }
  std::fprintf(stderr,
               "perfbench: per-layer self time, %s (%zu spans, %llu "
               "dropped by ring wrap)\n  %-34s %8s %12s %12s\n",
               args.workload.c_str(), spans.size(),
               static_cast<unsigned long long>(
                   obs::TraceRecorder::Global().TotalDropped()),
               "span", "count", "total ms", "self ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "  %-34s %8zu %12.3f %12.3f\n", name.c_str(),
                 row.count, row.total_us / 1000.0, row.self_us / 1000.0);
  }
}

void ReportLoop(const std::vector<double>& setup_s, const LoopResult& loop,
                Report* report) {
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("op_p50_ms", Median(loop.op_ms), "ms");
  Tail tail = TailOf(loop.op_ms);
  // Reported, not gated: see README.md.
  report->Extra("op_tail_ms", tail.value, "ms");
  report->Env("op_tail_percentile", tail.percentile);
  report->Env("op_samples", static_cast<double>(tail.samples));
  report->CountOps(loop.op_ms.size(), loop.failed);
  report->Extra("failed_ops_ratio",
                loop.op_ms.empty() ? 0.0
                                   : static_cast<double>(loop.failed) /
                                         static_cast<double>(
                                             loop.op_ms.size()),
                "ratio");
}

}  // namespace

LoopResult MeasureOps(const Args& args, size_t min_ops,
                      const std::vector<double>& setup_s,
                      const std::function<void(size_t)>& op,
                      const std::function<bool(size_t)>& check,
                      const std::function<void(const LoopResult&)>& probe,
                      Report* report) {
  namespace obs = geoalign::obs;
  if (args.smoke) min_ops = 3;
  if (!args.trace) {
    LoopResult loop = ClosedLoop(args.seconds, min_ops, op, check);
    ReportLoop(setup_s, loop, report);
    return loop;
  }
  const size_t traced_min_ops = std::max<size_t>(2, min_ops / 3);
  LoopResult untraced =
      ClosedLoop(args.seconds / 3, traced_min_ops, op, check);
  obs::SetEnabled(true);
  LoopResult traced = ClosedLoop(args.seconds / 3, traced_min_ops, op, check);
  obs::TraceRecorder::Global().Clear();
  probe(untraced);
  WriteTraceArtifacts(args);
  obs::SetEnabled(false);
  report->Layer("obs.trace_overhead_ratio",
                Median(traced.op_ms) / Median(untraced.op_ms), "ratio");
  report->CountOps(untraced.op_ms.size(), untraced.failed);
  ReportLoop(setup_s, traced, report);
  return traced;
}

}  // namespace perfbench
