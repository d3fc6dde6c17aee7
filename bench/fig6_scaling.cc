// Reproduces paper Figure 6 (a/b) and the §4.3 runtime discussion:
// GeoAlign runtime versus the number of source units (zip codes) and
// target units (counties) across the six nested universes, averaged
// over ten cross-validated trials. "Crosswalk time" is the wall time of
// one GeoAlign::Crosswalk call (obs::Stopwatch); its compile/execute
// split comes from the "compile" and "execute" span totals, so this
// bench runs with telemetry on.
//
// Built on google-benchmark for the per-universe timing; a summary
// table with the paper's series is printed at the end.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "core/geoalign.h"
#include "eval/report.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace geoalign {
namespace {

struct ScalingRow {
  std::string name;
  size_t zips = 0;
  size_t counties = 0;
  double seconds = 0.0;          ///< wall time per Crosswalk
  double compile_seconds = 0.0;  ///< "compile" span total per Crosswalk
  double execute_seconds = 0.0;  ///< "execute" span total per Crosswalk
};

// Sums the durations of the buffered spans named `name`.
double TakeSpanSeconds(const char* name) {
  double seconds = 0.0;
  for (const obs::SpanEvent& e : obs::TraceRecorder::Global().Collect()) {
    if (std::strcmp(e.name, name) == 0) {
      seconds += obs::TicksToSeconds(e.end_ticks - e.start_ticks);
    }
  }
  return seconds;
}

std::vector<ScalingRow>& Rows() {
  static std::vector<ScalingRow> rows;
  return rows;
}

void BM_GeoAlignCrosswalk(benchmark::State& state, synth::UniverseId id) {
  const synth::Universe& uni =
      bench::GetUniverse(id, synth::SuiteKind::kUnitedStates);
  core::GeoAlign geoalign;
  // Cross-validated trials in rotation, as in the paper (runtime is
  // dataset-independent up to DM sparsity).
  std::vector<core::CrosswalkInput> inputs;
  for (size_t t = 0; t < uni.datasets.size(); ++t) {
    inputs.push_back(std::move(uni.MakeLeaveOneOutInput(t)).ValueOrDie());
  }
  double total = 0.0;
  double compile = 0.0;
  double execute = 0.0;
  size_t iters = 0;
  size_t next = 0;
  for (auto _ : state) {
    obs::TraceRecorder::Global().Clear();
    obs::Stopwatch watch;
    auto res = geoalign.Crosswalk(inputs[next]);
    total += watch.ElapsedSeconds();
    res.status().CheckOK();
    benchmark::DoNotOptimize(res->target_estimates.data());
    compile += TakeSpanSeconds("compile");
    execute += TakeSpanSeconds("execute");
    ++iters;
    next = (next + 1) % inputs.size();
  }
  obs::TraceRecorder::Global().Clear();
  state.counters["zips"] = static_cast<double>(uni.NumZips());
  state.counters["counties"] = static_cast<double>(uni.NumCounties());
  state.counters["compile_share"] = total > 0.0 ? compile / total : 0.0;

  const double n = iters > 0 ? static_cast<double>(iters) : 1.0;
  ScalingRow row;
  row.name = uni.name;
  row.zips = uni.NumZips();
  row.counties = uni.NumCounties();
  row.seconds = total / n;
  row.compile_seconds = compile / n;
  row.execute_seconds = execute / n;
  // Replace any earlier sample for this universe (benchmark may rerun).
  for (ScalingRow& r : Rows()) {
    if (r.name == row.name) {
      r = row;
      return;
    }
  }
  Rows().push_back(row);
}

void PrintSummary() {
  std::printf("\n=== Figure 6: GeoAlign runtime vs universe size ===\n");
  eval::TextTable table({"universe", "zips (source)", "counties (target)",
                         "crosswalk time (ms)", "compile (ms)",
                         "execute (ms)"});
  for (const ScalingRow& r : Rows()) {
    table.Row()
        .Text(r.name)
        .Num(static_cast<double>(r.zips))
        .Num(static_cast<double>(r.counties))
        .Num(1e3 * r.seconds)
        .Num(1e3 * r.compile_seconds)
        .Num(1e3 * r.execute_seconds);
  }
  table.Print();
  if (Rows().size() >= 2) {
    const ScalingRow& a = Rows().front();
    const ScalingRow& b = Rows().back();
    double time_ratio = b.seconds / std::max(a.seconds, 1e-12);
    double unit_ratio = static_cast<double>(b.zips) / a.zips;
    std::printf(
        "\nlargest/smallest: %.1fx the source units, %.1fx the time "
        "(linear scaling => ratios comparable; paper Fig. 6)\n",
        unit_ratio, time_ratio);
  }
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using geoalign::synth::UniverseId;
  // Spans carry the compile/execute split; they are read back and
  // cleared after every Crosswalk, so the per-thread rings never wrap.
  geoalign::obs::SetEnabled(true);
  for (auto id :
       {UniverseId::kNewYork, UniverseId::kMidAtlantic,
        UniverseId::kNortheast, UniverseId::kEasternTime,
        UniverseId::kNonWest, UniverseId::kUnitedStates}) {
    std::string name =
        std::string("GeoAlignCrosswalk/") + geoalign::synth::UniverseName(id);
    benchmark::RegisterBenchmark(
        name.c_str(), [id](benchmark::State& state) {
          geoalign::BM_GeoAlignCrosswalk(state, id);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.5);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  geoalign::PrintSummary();
  return 0;
}
