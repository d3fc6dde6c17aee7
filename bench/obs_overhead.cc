// Cost of the telemetry primitives, enabled vs disabled: per-op
// nanoseconds for Counter::Add, Histogram::Record, and a full
// GEOALIGN_TRACE_SPAN enter/exit, plus the end-to-end serving-path
// check the acceptance bar cares about — a compiled-plan Execute with
// telemetry compiled in but disabled must be within noise of the same
// build with telemetry on. Results go to BENCH_obs_overhead.json;
// docs/observability.md cites these numbers.
//
// Usage: obs_overhead [output.json]
//   GEOALIGN_BENCH_SCALE  rescales the universe        (default 1.0)
//   GEOALIGN_BENCH_REPS   timing repetitions           (default 3)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "core/geoalign.h"
#include "eval/report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace geoalign {
namespace {

size_t Reps() { return bench::Reps(3); }

// Best-of-reps nanoseconds per op for `fn` run kOps times.
template <typename Fn>
double NanosPerOp(size_t ops, Fn&& fn) {
  double best = 1e300;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    obs::Stopwatch watch;
    for (size_t i = 0; i < ops; ++i) fn(i);
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best * 1e9 / static_cast<double>(ops);
}

struct Row {
  const char* name;
  double enabled_ns;
  double disabled_ns;
};

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_obs_overhead.json";
  constexpr size_t kOps = 2'000'000;

  obs::Counter counter;
  obs::Histogram histogram(obs::Histogram::DefaultBounds());
  std::vector<Row> rows;

  auto measure = [&](const char* name, auto&& fn) {
    obs::SetEnabled(true);
    double on = NanosPerOp(kOps, fn);
    obs::SetEnabled(false);
    double off = NanosPerOp(kOps, fn);
    obs::SetEnabled(true);
    rows.push_back({name, on, off});
  };

  measure("counter_add", [&](size_t) { counter.Add(); });
  measure("histogram_record",
          [&](size_t i) { histogram.Record(static_cast<double>(i % 4096)); });
  measure("trace_span", [&](size_t) { GEOALIGN_TRACE_SPAN("bench.span"); });
  obs::TraceRecorder::Global().Clear();

  // Request scoping and the flight recorder are deliberately NOT gated
  // on the telemetry switch (docs/observability.md), so their enabled
  // and disabled columns measure the same always-on cost.
  measure("request_scope",
          [&](size_t) { obs::RequestScope scope("bench-request"); });
  obs::AuditRecord proto;
  std::memcpy(proto.mode, "fused", 6);
  measure("audit_record", [&](size_t i) {
    proto.rows = i;
    obs::FlightRecorder::Global().Record(proto);
  });
  obs::FlightRecorder::Global().Clear();

  // End-to-end: one compiled plan executed repeatedly, telemetry on vs
  // off. This is the configuration the <2% overhead acceptance bound
  // refers to (see docs/observability.md).
  const synth::Universe& uni = bench::GetUniverse(
      synth::UniverseId::kUnitedStates, synth::SuiteKind::kUnitedStates);
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  core::GeoAlignOptions options;
  options.threads = 1;
  auto plan = core::CrosswalkPlan::Compile(input.references, options);
  plan.status().CheckOK();
  constexpr size_t kExecs = 20;
  auto execute_once = [&](size_t) {
    auto result = plan->Execute(input.objective_source);
    result.status().CheckOK();
  };
  obs::SetEnabled(true);
  double exec_on_ns = NanosPerOp(kExecs, execute_once);
  obs::SetEnabled(false);
  double exec_off_ns = NanosPerOp(kExecs, execute_once);
  obs::SetEnabled(true);
  rows.push_back({"plan_execute", exec_on_ns, exec_off_ns});

  eval::TextTable table({"op", "enabled ns/op", "disabled ns/op"});
  for (const Row& r : rows) {
    table.Row().Text(r.name).Num(r.enabled_ns).Num(r.disabled_ns);
  }
  table.Print();
  double exec_ratio = exec_on_ns / exec_off_ns;
  std::printf("\nplan_execute enabled/disabled ratio: %.4f\n", exec_ratio);

  std::vector<bench::Json> ops;
  for (const Row& r : rows) {
    ops.push_back(bench::Obj({{"op", bench::Str(r.name)},
                              {"enabled_ns", bench::Num(r.enabled_ns)},
                              {"disabled_ns", bench::Num(r.disabled_ns)}}));
  }
  return bench::WriteBenchJson(
             out_path, "obs_overhead", Reps(),
             {{"plan_execute_enabled_over_disabled", bench::Num(exec_ratio)},
              {"ops", bench::Arr(std::move(ops))}})
             ? 0
             : 1;
}
