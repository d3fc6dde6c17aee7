// National-scale overlay construction benchmark: the legacy path
// (OverlayPolygonsReference: per-target R-tree queries, per-pair fan
// recomputation, allocating clippers) against the overlay engine
// (cached fans + dual-tree join + workspace scratch), with and without
// the geometry fast paths, on perturbed-grid × Voronoi universes up to
// ~30k × 3k units.
//
// Each universe also checks the engine (fast paths off) for
// BIT-identical cells against the reference, reports the dual-tree
// candidate count, and measures the steady-state hot-path allocation
// count through a warm workspace (the zero-alloc contract: 0).
//
// Usage: overlay_scale [output.json]
//   GEOALIGN_BENCH_SCALE   rescales unit counts (default 1.0)
//   GEOALIGN_BENCH_REPS    timing repetitions   (default 3)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/float_eq.h"
#include "common/random.h"
#include "eval/report.h"
#include "geom/voronoi.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "oracles/overlay_reference.h"
#include "partition/overlay.h"
#include "partition/overlay_prepared.h"

namespace geoalign {
namespace {

size_t Reps() { return bench::Reps(3); }

partition::PolygonPartition MakeGridLayer(Rng& rng, size_t n_units,
                                          double world) {
  size_t nx = std::max<size_t>(
      2, static_cast<size_t>(std::lround(std::sqrt(
             static_cast<double>(n_units)))));
  double d = world / static_cast<double>(nx);
  std::vector<geom::Polygon> polys;
  polys.reserve(nx * nx);
  for (size_t gy = 0; gy < nx; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double x0 = static_cast<double>(gx) * d;
      double y0 = static_cast<double>(gy) * d;
      double j = rng.Uniform(0.0, 0.08 * d);
      polys.emplace_back(geom::Ring{{x0 + j, y0},
                                    {x0 + d, y0 + j},
                                    {x0 + d - j, y0 + d},
                                    {x0, y0 + d - j}});
    }
  }
  return std::move(partition::PolygonPartition::Create(std::move(polys)))
      .ValueOrDie();
}

partition::PolygonPartition MakeVoronoiLayer(Rng& rng, size_t n_units,
                                             double world) {
  std::vector<geom::Point> sites;
  sites.reserve(n_units);
  for (size_t i = 0; i < n_units; ++i) {
    sites.push_back({rng.Uniform(0.01 * world, 0.99 * world),
                     rng.Uniform(0.01 * world, 0.99 * world)});
  }
  auto rings = std::move(geom::VoronoiCells(
                             sites, geom::BBox(0, 0, world, world)))
                   .ValueOrDie();
  std::vector<geom::Polygon> polys;
  polys.reserve(rings.size());
  for (auto& r : rings) {
    if (r.size() >= 3) polys.emplace_back(std::move(r));
  }
  return std::move(partition::PolygonPartition::Create(std::move(polys)))
      .ValueOrDie();
}

struct UniverseResult {
  std::string name;
  size_t source_units = 0;
  size_t target_units = 0;
  size_t candidate_pairs = 0;
  size_t cells = 0;
  double seconds_reference = 0.0;
  double seconds_engine = 0.0;
  double seconds_fast = 0.0;
  double seconds_fast_warm = 0.0;
  double speedup_engine = 0.0;  // reference / engine (fast paths off)
  double speedup_fast = 0.0;    // reference / fast-path warm engine
  uint64_t hot_allocs_steady = 0;
  bool bit_identical = true;
};

bool CellsBitIdentical(const partition::OverlayResult& a,
                       const partition::OverlayResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t k = 0; k < a.cells.size(); ++k) {
    if (a.cells[k].source != b.cells[k].source ||
        a.cells[k].target != b.cells[k].target ||
        !ExactlyEqual(a.cells[k].measure, b.cells[k].measure)) {
      return false;
    }
  }
  return true;
}

UniverseResult RunUniverse(const char* name, size_t source_units,
                           size_t target_units, uint64_t seed) {
  UniverseResult r;
  r.name = name;
  Rng rng(seed);
  partition::PolygonPartition source =
      MakeGridLayer(rng, source_units, 100.0);
  partition::PolygonPartition target =
      MakeVoronoiLayer(rng, target_units, 100.0);
  r.source_units = source.NumUnits();
  r.target_units = target.NumUnits();

  constexpr double kMinArea = 1e-9;
  auto time_best = [&](auto&& fn) {
    double best = 1e300;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      Stopwatch watch;
      fn();
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };

  partition::OverlayResult ref_cells;
  r.seconds_reference = time_best([&] {
    ref_cells = std::move(partition::OverlayPolygonsReference(
                              source, target, kMinArea))
                    .ValueOrDie();
  });
  r.cells = ref_cells.cells.size();

  obs::Counter& pair_counter =
      obs::MetricsRegistry::Global().GetCounter("overlay.candidate_pairs");
  obs::Counter& alloc_counter =
      obs::MetricsRegistry::Global().GetCounter("overlay.hot_path_allocs");

  partition::OverlayOptions exact;
  exact.min_area = kMinArea;
  uint64_t pairs_before = pair_counter.Value();
  partition::OverlayResult engine_cells;
  r.seconds_engine = time_best([&] {
    engine_cells =
        std::move(partition::OverlayPolygons(source, target, exact))
            .ValueOrDie();
  });
  r.candidate_pairs = static_cast<size_t>(
      (pair_counter.Value() - pairs_before) / Reps());
  r.bit_identical = CellsBitIdentical(engine_cells, ref_cells);

  partition::OverlayOptions fast = exact;
  fast.fast_paths = true;
  r.seconds_fast = time_best([&] {
    partition::OverlayResult fast_cells =
        std::move(partition::OverlayPolygons(source, target, fast))
            .ValueOrDie();
    if (fast_cells.cells.size() != ref_cells.cells.size()) std::abort();
  });

  // Warm-workspace steady state: first run grows the buffers, the
  // timed runs reuse them; the alloc counter must stay flat.
  partition::OverlayWorkspace ws;
  partition::OverlayOptions warm = fast;
  warm.workspace = &ws;
  partition::OverlayResult warmup =
      std::move(partition::OverlayPolygons(source, target, warm))
          .ValueOrDie();
  (void)warmup;
  uint64_t allocs_before = alloc_counter.Value();
  r.seconds_fast_warm = time_best([&] {
    partition::OverlayResult cells =
        std::move(partition::OverlayPolygons(source, target, warm))
            .ValueOrDie();
    (void)cells;
  });
  r.hot_allocs_steady = alloc_counter.Value() - allocs_before;

  r.speedup_engine = r.seconds_reference / r.seconds_engine;
  r.speedup_fast = r.seconds_reference / r.seconds_fast_warm;
  return r;
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using namespace geoalign;
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_overlay_construction.json";
  obs::SetEnabled(true);
  double scale = bench::BenchScale();

  struct Config {
    const char* name;
    size_t source_units;
    size_t target_units;
  };
  const std::vector<Config> configs = {
      {"small_2.5k_x_250", 2500, 250},
      {"medium_10k_x_1k", 10000, 1000},
      {"large_30k_x_3k", 30000, 3000},
  };

  std::vector<UniverseResult> results;
  for (const Config& c : configs) {
    size_t su = std::max<size_t>(
        16, static_cast<size_t>(static_cast<double>(c.source_units) * scale));
    size_t tu = std::max<size_t>(
        4, static_cast<size_t>(static_cast<double>(c.target_units) * scale));
    std::printf("running %s (%zu x %zu units, scale %.3f)...\n", c.name, su,
                tu, scale);
    results.push_back(RunUniverse(c.name, su, tu, 20180610));
  }

  eval::TextTable table({"universe", "src", "tgt", "pairs", "cells",
                         "ref s", "engine s", "fast+warm s", "speedup",
                         "allocs", "bit-id"});
  bool all_identical = true;
  bool all_zero_alloc = true;
  for (const UniverseResult& r : results) {
    table.Row()
        .Text(r.name)
        .Num(static_cast<double>(r.source_units))
        .Num(static_cast<double>(r.target_units))
        .Num(static_cast<double>(r.candidate_pairs))
        .Num(static_cast<double>(r.cells))
        .Num(r.seconds_reference)
        .Num(r.seconds_engine)
        .Num(r.seconds_fast_warm)
        .Num(r.speedup_fast)
        .Num(static_cast<double>(r.hot_allocs_steady))
        .Text(r.bit_identical ? "yes" : "NO");
    all_identical &= r.bit_identical;
    all_zero_alloc &= r.hot_allocs_steady == 0;
  }
  table.Print();
  std::printf("\nbit-identity (engine vs reference): %s\n",
              all_identical ? "PASS" : "FAIL");
  std::printf("zero steady-state hot-path allocs: %s\n",
              all_zero_alloc ? "PASS" : "FAIL");

  bench::JsonObject universes;
  for (const UniverseResult& r : results) {
    universes[r.name] = bench::Obj(
        {{"source_units", bench::Num(r.source_units)},
         {"target_units", bench::Num(r.target_units)},
         {"candidate_pairs", bench::Num(r.candidate_pairs)},
         {"cells", bench::Num(r.cells)},
         {"seconds_reference", bench::Num(r.seconds_reference)},
         {"seconds_engine", bench::Num(r.seconds_engine)},
         {"seconds_fast", bench::Num(r.seconds_fast)},
         {"seconds_fast_warm", bench::Num(r.seconds_fast_warm)},
         {"speedup_engine", bench::Num(r.speedup_engine)},
         {"speedup_fast", bench::Num(r.speedup_fast)},
         {"hot_allocs_steady", bench::Num(r.hot_allocs_steady)},
         {"bit_identical", bench::Bool(r.bit_identical)}});
  }
  if (!bench::WriteBenchJson(
          out_path, "overlay_construction", Reps(),
          {{"bit_identical_all", bench::Bool(all_identical)},
           {"zero_steady_state_allocs", bench::Bool(all_zero_alloc)},
           {"universes", bench::Obj(std::move(universes))}})) {
    return 1;
  }
  return all_identical && all_zero_alloc ? 0 : 1;
}
