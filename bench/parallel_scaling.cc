// Parallel-scaling companion to Figure 6: end-to-end pipeline time of
// the fig6-style synthetic workload versus worker-thread count, for
// both parallelism layers introduced with src/common/thread_pool:
//
//  * crosswalk — one GeoAlign::Crosswalk with options.threads = T.
//    A single plan execute runs inline, so this series is flat by
//    design; it stays as the check that T never changes its bits;
//  * batch — one compiled plan's CrosswalkPlan::ExecuteMany over
//    independent objective columns on a T-worker pool (panel groups
//    run on the pool).
//
// Every configuration is also checked for BIT-identical output against
// threads = 1 (the deterministic-reduction contract), and the series
// is written to a BENCH_parallel_scaling.json trajectory file.
//
// Usage: parallel_scaling [output.json]
//   GEOALIGN_BENCH_SCALE   rescales the universe (default 1.0)
//   GEOALIGN_BENCH_REPS    timing repetitions   (default 5)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/geoalign.h"
#include "eval/report.h"
#include "obs/timer.h"

namespace geoalign {
namespace {

struct Sample {
  size_t threads = 0;
  double seconds = 0.0;   // best of reps
  double speedup = 1.0;   // vs threads == 1
  bool bit_identical = true;
};

size_t Reps() { return bench::Reps(5); }

const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};

// Times one GeoAlign crosswalk per thread count (runs inline at every T).
std::vector<Sample> BenchCrosswalk(const synth::Universe& uni) {
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  std::vector<Sample> samples;
  linalg::Vector baseline;
  for (size_t threads : kThreadCounts) {
    core::GeoAlignOptions opts;
    opts.threads = threads;
    core::GeoAlign geoalign(opts);
    Sample s;
    s.threads = threads;
    s.seconds = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      Stopwatch watch;
      auto res = geoalign.Crosswalk(input);
      res.status().CheckOK();
      s.seconds = std::min(s.seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        if (threads == 1) {
          baseline = res->target_estimates;
        } else {
          s.bit_identical = res->target_estimates == baseline;
        }
      }
    }
    samples.push_back(s);
  }
  for (Sample& s : samples) s.speedup = samples[0].seconds / s.seconds;
  return samples;
}

// Times ExecuteMany over independent objectives (outer layer): the
// first half of the suite acts as the shared reference set, every
// remaining dataset is an objective column.
std::vector<Sample> BenchBatch(const synth::Universe& uni, size_t* num_objs,
                               size_t* num_refs) {
  size_t half = uni.datasets.size() / 2;
  std::vector<core::ReferenceAttribute> references;
  for (size_t k = 0; k < half; ++k) {
    references.push_back(
        {uni.datasets[k].name, uni.datasets[k].source, uni.datasets[k].dm});
  }
  *num_objs = uni.datasets.size() - half;
  *num_refs = references.size();
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            references, core::GeoAlignOptions{}))
                  .ValueOrDie();
  const auto column = [&](size_t i,
                          linalg::Vector*) -> Result<common::ColumnView> {
    return common::ColumnView(uni.datasets[half + i].source);
  };

  std::vector<Sample> samples;
  std::vector<linalg::Vector> baseline;
  for (size_t threads : kThreadCounts) {
    std::unique_ptr<common::ThreadPool> pool =
        common::MakePoolOrNull(threads);
    Sample s;
    s.threads = threads;
    s.seconds = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      Stopwatch watch;
      auto results = plan.ExecuteMany(*num_objs, column, pool.get(),
                                      core::ExecuteOutput::kAggregatesOnly);
      results.status().CheckOK();
      s.seconds = std::min(s.seconds, watch.ElapsedSeconds());
      if (rep == 0) {
        if (threads == 1) {
          for (const auto& r : *results) baseline.push_back(r.target_estimates);
        } else {
          for (size_t k = 0; k < results->size(); ++k) {
            s.bit_identical = s.bit_identical &&
                              (*results)[k].target_estimates == baseline[k];
          }
        }
      }
    }
    samples.push_back(s);
  }
  for (Sample& s : samples) s.speedup = samples[0].seconds / s.seconds;
  return samples;
}

void PrintSection(const char* name, const std::vector<Sample>& samples) {
  std::printf("\n--- %s ---\n", name);
  eval::TextTable table({"threads", "seconds", "speedup", "bit-identical"});
  for (const Sample& s : samples) {
    table.Row()
        .Num(static_cast<double>(s.threads))
        .Num(s.seconds)
        .Num(s.speedup)
        .Text(s.bit_identical ? "yes" : "NO");
  }
  table.Print();
}

bench::Json SeriesJson(const std::vector<Sample>& samples) {
  std::vector<bench::Json> series;
  for (const Sample& s : samples) {
    series.push_back(
        bench::Obj({{"threads", bench::Num(s.threads)},
                    {"seconds", bench::Num(s.seconds)},
                    {"speedup", bench::Num(s.speedup)},
                    {"bit_identical", bench::Bool(s.bit_identical)}}));
  }
  return bench::Obj({{"series", bench::Arr(std::move(series))}});
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_parallel_scaling.json";

  const synth::Universe& uni = bench::GetUniverse(
      synth::UniverseId::kUnitedStates, synth::SuiteKind::kUnitedStates);
  std::printf("universe: %s (%zu zips -> %zu counties), scale %.3f, "
              "hardware threads %u\n",
              uni.name.c_str(), uni.NumZips(), uni.NumCounties(),
              bench::BenchScale(), std::thread::hardware_concurrency());

  std::vector<Sample> crosswalk = BenchCrosswalk(uni);
  size_t num_objs = 0;
  size_t num_refs = 0;
  std::vector<Sample> batch = BenchBatch(uni, &num_objs, &num_refs);

  PrintSection("single crosswalk (inline; flat by design)", crosswalk);
  PrintSection("batch over objectives (outer parallelism)", batch);

  bool all_identical = true;
  for (const Sample& s : crosswalk) all_identical &= s.bit_identical;
  for (const Sample& s : batch) all_identical &= s.bit_identical;
  std::printf("\nbit-identity across all thread counts: %s\n",
              all_identical ? "PASS" : "FAIL");

  if (!bench::WriteBenchJson(
          out_path, "parallel_scaling", Reps(),
          {{"universe", bench::Str(uni.name)},
           {"zips", bench::Num(uni.NumZips())},
           {"counties", bench::Num(uni.NumCounties())},
           {"hardware_concurrency",
            bench::Num(std::thread::hardware_concurrency())},
           {"batch_objectives", bench::Num(num_objs)},
           {"batch_references", bench::Num(num_refs)},
           {"bit_identical_all", bench::Bool(all_identical)},
           {"crosswalk", SeriesJson(crosswalk)},
           {"batch", SeriesJson(batch)}})) {
    return 1;
  }
  return all_identical ? 0 : 1;
}
