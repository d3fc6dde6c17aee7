// overlay_voronoi: partition::OverlayPolygons of a ~30k-unit Voronoi
// "zip" layer with a ~3k-unit Voronoi "county" layer, with default
// options and no caller workspace, so every op pays layer preparation
// and the dual-tree join like a one-off crosswalk build. The only
// workload through partition/spatial/geom; it bypasses core.
#include <cstring>

#include "checks.h"
#include "common/random.h"
#include "geom/voronoi.h"
#include "obs/metrics.h"
#include "partition/overlay.h"
#include "partition/overlay_prepared.h"
#include "workloads.h"

namespace perfbench {

namespace geom = geoalign::geom;
namespace obs = geoalign::obs;
namespace partition = geoalign::partition;

namespace {

constexpr double kWorld = 100.0;
constexpr size_t kZips = 30000;
constexpr size_t kCounties = 3000;

// A Voronoi partition of the world square over `n` uniform sites.
std::unique_ptr<partition::PolygonPartition> VoronoiLayer(geoalign::Rng& rng,
                                                          size_t n) {
  std::vector<geom::Point> sites;
  sites.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sites.push_back({rng.Uniform(0.0, kWorld), rng.Uniform(0.0, kWorld)});
  }
  std::vector<geom::Ring> rings =
      geom::VoronoiCells(sites, geom::BBox(0, 0, kWorld, kWorld)).ValueOrDie();
  std::vector<geom::Polygon> polys;
  polys.reserve(rings.size());
  for (geom::Ring& ring : rings) {
    if (ring.size() >= 3) polys.emplace_back(std::move(ring));
  }
  return std::make_unique<partition::PolygonPartition>(
      partition::PolygonPartition::Create(std::move(polys)).ValueOrDie());
}

struct Layers {
  std::unique_ptr<partition::PolygonPartition> zips;
  std::unique_ptr<partition::PolygonPartition> counties;
  double total_area = 0.0;
};

Layers BuildLayers(const Args& args) {
  geoalign::Rng rng(args.seed, /*stream=*/11);
  const auto scaled = [&](size_t n) {
    return std::max<size_t>(16, static_cast<size_t>(
                                    static_cast<double>(n) * args.scale));
  };
  Layers l;
  l.zips = VoronoiLayer(rng, scaled(kZips));
  l.counties = VoronoiLayer(rng, scaled(kCounties));
  l.total_area = l.zips->TotalMeasure();
  return l;
}

partition::OverlayOptions BenchOverlayOptions() {
  partition::OverlayOptions options;
  options.threads = BenchThreads();
  return options;
}

void ProbeLayers(const Layers& l, Report* report) {
  obs::Counter& pairs =
      obs::MetricsRegistry::Global().GetCounter("overlay.candidate_pairs");
  obs::Counter& allocs =
      obs::MetricsRegistry::Global().GetCounter("overlay.hot_path_allocs");
  constexpr size_t kReps = 5;
  std::vector<double> prepare_ms, join_ms, pair_counts, alloc_counts;
  double cells = 0.0;
  for (size_t r = 0; r < kReps; ++r) {
    prepare_ms.push_back(TimedMs("partition.prepare_layers", [&] {
      partition::PreparedOverlayLayer::Build(*l.zips);
      partition::PreparedOverlayLayer::Build(*l.counties);
    }));
    std::vector<std::pair<uint32_t, uint32_t>> candidates;
    join_ms.push_back(TimedMs("spatial.dual_tree_join", [&] {
      l.zips->rtree().DualTreeJoin(l.counties->rtree(), &candidates);
    }));
    const uint64_t pairs0 = pairs.Value();
    const uint64_t allocs0 = allocs.Value();
    TimedMs("partition.overlay_polygons", [&] {
      cells = static_cast<double>(
          partition::OverlayPolygons(*l.zips, *l.counties,
                                     BenchOverlayOptions())
              .ValueOrDie()
              .cells.size());
    });
    pair_counts.push_back(static_cast<double>(pairs.Value() - pairs0));
    alloc_counts.push_back(static_cast<double>(allocs.Value() - allocs0));
  }
  const double candidate_pairs = Median(pair_counts);
  report->Layer("partition.prepare_layers_ms", Median(prepare_ms), "ms");
  report->Layer("spatial.dual_tree_join_ms", Median(join_ms), "ms");
  report->Layer("overlay.candidate_pairs", candidate_pairs, "count");
  report->Layer("partition.cells", cells, "count");
  report->Layer("partition.cell_yield",
                candidate_pairs > 0 ? cells / candidate_pairs : 0.0, "ratio");
  report->Layer("overlay.hot_path_allocs", Median(alloc_counts), "count");
}

}  // namespace

void RunOverlay(const Args& args, Report* report) {
  std::vector<double> setup_s;
  Layers l = RepeatedSetup(args.setup_reps, &setup_s,
                           [&] { return BuildLayers(args); });
  report->Env("source_units", static_cast<double>(l.zips->NumUnits()));
  report->Env("target_units", static_cast<double>(l.counties->NumUnits()));

  partition::OverlayResult last;
  auto op = [&](size_t) {
    last = partition::OverlayPolygons(*l.zips, *l.counties,
                                      BenchOverlayOptions())
               .ValueOrDie();
  };
  op(0);  // warm-up, also the determinism baseline
  const size_t first_cells = last.cells.size();
  const double first_area = last.TotalMeasure();
  double max_rel_err = 0.0;
  // Each op must cover the layer area and repeat the first op's cells
  // and area bits (the engine is deterministic at any thread count).
  auto check = [&](size_t) {
    CheckResult c = CheckOverlayArea(last, l.total_area);
    max_rel_err = std::max(max_rel_err, c.max_rel_err);
    const double area = last.TotalMeasure();
    if (last.cells.size() != first_cells ||
        std::memcmp(&area, &first_area, sizeof(area)) != 0) {
      c.ok = false;
      c.why = "repeat overlay changed its cells";
    }
    if (!c.ok) report->Fail(c.why);
    return c.ok;
  };
  if (!check(0)) report->CountOps(0, 1);
  report->Env("cells", static_cast<double>(first_cells));

  MeasureOps(args, 30, setup_s, op, check,
             [&](const LoopResult&) { ProbeLayers(l, report); }, report);
  report->Extra("max_rel_err", max_rel_err, "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(false), "MB");
}

bool SelfTestOverlay(const Args& args) {
  Layers l = BuildLayers(args);
  partition::OverlayResult r =
      partition::OverlayPolygons(*l.zips, *l.counties, BenchOverlayOptions())
          .ValueOrDie();
  const bool clean = CheckOverlayArea(r, l.total_area).ok;
  // Drop one cell: the cells no longer cover the layer area.
  bool flagged = false;
  if (!r.cells.empty()) {
    r.cells.erase(r.cells.begin() + static_cast<long>(r.cells.size() / 2));
    flagged = !CheckOverlayArea(r, l.total_area).ok;
  }
  std::fprintf(stderr, "self-test overlay_voronoi: clean %s, corrupted %s\n",
               clean ? "passes" : "FAILS", flagged ? "flagged" : "NOT FLAGGED");
  return clean && flagged;
}

}  // namespace perfbench
