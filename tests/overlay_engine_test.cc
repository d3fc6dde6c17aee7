// Differential gates for the geometric overlay engine
// (partition/overlay.cc): with fast paths off the engine must be
// BIT-identical to OverlayPolygonsReference (the pre-engine per-target
// query + per-pair IntersectionArea path) over every universe shape ×
// thread count; the value-changing fast paths get their own
// differential with a documented tolerance; a warmed OverlayWorkspace
// must serve overlays with zero hot-path allocations; and the
// dual-tree candidate join must agree with the brute-force bbox join.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/float_eq.h"
#include "common/random.h"
#include "geom/voronoi.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "oracles/overlay_reference.h"
#include "partition/overlay.h"
#include "partition/overlay_prepared.h"
#include "spatial/rtree.h"

namespace geoalign::partition {
namespace {

// Voronoi layer: convex hole-free cells (the paper's zip/county shape).
PolygonPartition MakeVoronoiLayer(Rng& rng, size_t n,
                                  const geom::BBox& world) {
  std::vector<geom::Point> sites;
  for (size_t i = 0; i < n; ++i) {
    sites.push_back({rng.Uniform(world.min_x + 0.2, world.max_x - 0.2),
                     rng.Uniform(world.min_y + 0.2, world.max_y - 0.2)});
  }
  auto rings = std::move(geom::VoronoiCells(sites, world)).ValueOrDie();
  std::vector<geom::Polygon> polys;
  for (auto& r : rings) {
    if (r.size() >= 3) polys.emplace_back(std::move(r));
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

// Perturbed-grid layer; optional square holes make units non-convex so
// the fan path (not the convex fast path) is exercised.
PolygonPartition MakeGridLayer(Rng& rng, size_t nx, size_t ny,
                               double world, bool with_holes) {
  double dx = world / static_cast<double>(nx);
  double dy = world / static_cast<double>(ny);
  std::vector<geom::Polygon> polys;
  for (size_t gy = 0; gy < ny; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double x0 = static_cast<double>(gx) * dx;
      double y0 = static_cast<double>(gy) * dy;
      double j = rng.Uniform(0.0, 0.08 * dx);
      geom::Ring outer = {{x0 + j, y0},
                          {x0 + dx, y0 + j},
                          {x0 + dx - j, y0 + dy},
                          {x0, y0 + dy - j}};
      std::vector<geom::Ring> holes;
      if (with_holes && (gx + gy) % 3 == 0) {
        double cx = x0 + 0.5 * dx;
        double cy = y0 + 0.5 * dy;
        double h = 0.15 * std::min(dx, dy);
        // CW hole ring (Polygon::Create normalizes orientation).
        holes.push_back({{cx - h, cy - h},
                         {cx - h, cy + h},
                         {cx + h, cy + h},
                         {cx + h, cy - h}});
      }
      polys.push_back(std::move(geom::Polygon::Create(std::move(outer),
                                                      std::move(holes)))
                          .ValueOrDie());
    }
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

// Small L-shaped islands strictly inside the cells of a coarse grid —
// every island is fully contained in one coarse unit, and the L makes
// it non-convex, so the pair falls past the convex fast path and the
// containment fast path gets real hits.
PolygonPartition MakeIslandLayer(Rng& rng, size_t nx, size_t ny,
                                 double world) {
  double dx = world / static_cast<double>(nx);
  double dy = world / static_cast<double>(ny);
  std::vector<geom::Polygon> polys;
  for (size_t gy = 0; gy < ny; ++gy) {
    for (size_t gx = 0; gx < nx; ++gx) {
      double cx = (static_cast<double>(gx) + 0.5) * dx +
                  rng.Uniform(-0.1 * dx, 0.1 * dx);
      double cy = (static_cast<double>(gy) + 0.5) * dy +
                  rng.Uniform(-0.1 * dy, 0.1 * dy);
      double h = rng.Uniform(0.1, 0.25) * std::min(dx, dy);
      polys.emplace_back(geom::Ring{
          {cx - h, cy - h}, {cx + h, cy - h}, {cx + h, cy},
          {cx, cy}, {cx, cy + h}, {cx - h, cy + h}});
    }
  }
  return std::move(PolygonPartition::Create(std::move(polys))).ValueOrDie();
}

void ExpectBitIdentical(const OverlayResult& got, const OverlayResult& want,
                        const char* label) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << label;
  for (size_t k = 0; k < got.cells.size(); ++k) {
    EXPECT_EQ(got.cells[k].source, want.cells[k].source) << label << " " << k;
    EXPECT_EQ(got.cells[k].target, want.cells[k].target) << label << " " << k;
    EXPECT_TRUE(ExactlyEqual(got.cells[k].measure,
                                     want.cells[k].measure))
        << label << " cell " << k << ": " << got.cells[k].measure << " vs "
        << want.cells[k].measure;
  }
}

TEST(OverlayEngineTest, BitIdenticalToReferenceAcrossUniversesAndThreads) {
  Rng rng(9100);
  geom::BBox world(0, 0, 10, 10);
  struct Universe {
    const char* name;
    PolygonPartition source;
    PolygonPartition target;
  };
  std::vector<Universe> universes;
  universes.push_back({"voronoi x voronoi", MakeVoronoiLayer(rng, 60, world),
                       MakeVoronoiLayer(rng, 13, world)});
  universes.push_back({"grid x voronoi",
                       MakeGridLayer(rng, 9, 9, 10.0, /*with_holes=*/false),
                       MakeVoronoiLayer(rng, 8, world)});
  universes.push_back({"holey grid x shifted grid",
                       MakeGridLayer(rng, 8, 8, 10.0, /*with_holes=*/true),
                       MakeGridLayer(rng, 5, 5, 10.0, /*with_holes=*/false)});

  for (const Universe& u : universes) {
    OverlayResult ref = std::move(OverlayPolygonsReference(
                            u.source, u.target, /*min_area=*/1e-9))
                            .ValueOrDie();
    ASSERT_FALSE(ref.cells.empty()) << u.name;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      OverlayOptions opts;
      opts.min_area = 1e-9;
      opts.threads = threads;
      OverlayResult got =
          std::move(OverlayPolygons(u.source, u.target, opts)).ValueOrDie();
      ExpectBitIdentical(got, ref, u.name);
    }
  }
}

TEST(OverlayEngineTest, FastPathsMatchExactPathWithinTolerance) {
  // Containment hits are exact (the measure is the contained polygon's
  // Area(), which IS the real intersection area); convex hits replace
  // the triangle-fan sum with one Sutherland–Hodgman pass, identical
  // in real arithmetic but free to differ in the last ulps — 1e-9
  // relative is orders of magnitude looser than the observed error and
  // still far tighter than any downstream use (docs/architecture.md).
  bool saved = obs::Enabled();
  obs::SetEnabled(true);
  Rng rng(9200);
  geom::BBox world(0, 0, 10, 10);
  struct Universe {
    const char* name;
    PolygonPartition source;
    PolygonPartition target;
  };
  std::vector<Universe> universes;
  universes.push_back({"voronoi x voronoi (convex hits)",
                       MakeVoronoiLayer(rng, 50, world),
                       MakeVoronoiLayer(rng, 11, world)});
  universes.push_back({"voronoi x islands (containment hits)",
                       MakeVoronoiLayer(rng, 6, world),
                       MakeIslandLayer(rng, 7, 7, 10.0)});
  obs::Counter& contain_hits = obs::MetricsRegistry::Global().GetCounter(
      "overlay.fastpath_contain_hits");
  obs::Counter& convex_hits = obs::MetricsRegistry::Global().GetCounter(
      "overlay.fastpath_convex_hits");
  uint64_t contain_before = contain_hits.Value();
  uint64_t convex_before = convex_hits.Value();

  for (const Universe& u : universes) {
    OverlayOptions exact;
    exact.min_area = 1e-9;
    OverlayOptions fast = exact;
    fast.fast_paths = true;
    OverlayResult want =
        std::move(OverlayPolygons(u.source, u.target, exact)).ValueOrDie();
    OverlayResult got =
        std::move(OverlayPolygons(u.source, u.target, fast)).ValueOrDie();
    ASSERT_EQ(got.cells.size(), want.cells.size()) << u.name;
    for (size_t k = 0; k < got.cells.size(); ++k) {
      EXPECT_EQ(got.cells[k].source, want.cells[k].source) << u.name;
      EXPECT_EQ(got.cells[k].target, want.cells[k].target) << u.name;
      EXPECT_NEAR(got.cells[k].measure, want.cells[k].measure,
                  1e-9 * std::max(1.0, want.cells[k].measure))
          << u.name << " cell " << k;
    }
  }
  EXPECT_GT(contain_hits.Value(), contain_before)
      << "island universe produced no containment fast-path hits";
  EXPECT_GT(convex_hits.Value(), convex_before)
      << "voronoi universe produced no convex fast-path hits";
  obs::SetEnabled(saved);
}

TEST(OverlayEngineTest, WarmWorkspaceServesOverlaysWithZeroHotPathAllocs) {
  // The zero-allocation promise: the first overlay through a fresh
  // workspace may grow its buffers; every later same-shape overlay
  // must not (overlay.hot_path_allocs delta == 0, and the workspace's
  // own growth ledger stays flat).
  bool saved = obs::Enabled();
  obs::SetEnabled(true);
  {
    Rng rng(9300);
    geom::BBox world(0, 0, 10, 10);
    PolygonPartition source = MakeVoronoiLayer(rng, 40, world);
    PolygonPartition target = MakeVoronoiLayer(rng, 9, world);

    OverlayWorkspace ws;
    OverlayOptions opts;
    opts.min_area = 1e-9;
    opts.workspace = &ws;
    OverlayResult warm =
        std::move(OverlayPolygons(source, target, opts)).ValueOrDie();
    ASSERT_FALSE(warm.cells.empty());

    obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
        "overlay.hot_path_allocs");
    uint64_t counter_before = allocs.Value();
    uint64_t ledger_before = ws.alloc_events();
    for (int rep = 0; rep < 3; ++rep) {
      OverlayResult again =
          std::move(OverlayPolygons(source, target, opts)).ValueOrDie();
      ExpectBitIdentical(again, warm, "workspace reuse");
    }
    EXPECT_EQ(allocs.Value(), counter_before)
        << "warmed workspace must serve overlays without buffer growth";
    EXPECT_EQ(ws.alloc_events(), ledger_before);
  }
  obs::SetEnabled(saved);
}

TEST(OverlayEngineTest, WorkspaceReusedAcrossDifferentUniverses) {
  // One workspace serving unrelated overlays back-to-back must not
  // leak state between them (stale chunk cells, stale pairs).
  Rng rng(9400);
  geom::BBox world(0, 0, 10, 10);
  PolygonPartition a1 = MakeVoronoiLayer(rng, 30, world);
  PolygonPartition a2 = MakeVoronoiLayer(rng, 7, world);
  PolygonPartition b1 = MakeGridLayer(rng, 6, 6, 10.0, /*with_holes=*/true);
  PolygonPartition b2 = MakeGridLayer(rng, 4, 4, 10.0, /*with_holes=*/false);

  OverlayWorkspace ws;
  OverlayOptions opts;
  opts.min_area = 1e-9;
  opts.workspace = &ws;
  for (int rep = 0; rep < 2; ++rep) {
    OverlayResult got_a =
        std::move(OverlayPolygons(a1, a2, opts)).ValueOrDie();
    OverlayResult ref_a =
        std::move(OverlayPolygonsReference(a1, a2, 1e-9)).ValueOrDie();
    ExpectBitIdentical(got_a, ref_a, "universe A");
    OverlayResult got_b =
        std::move(OverlayPolygons(b1, b2, opts)).ValueOrDie();
    OverlayResult ref_b =
        std::move(OverlayPolygonsReference(b1, b2, 1e-9)).ValueOrDie();
    ExpectBitIdentical(got_b, ref_b, "universe B");
  }
}

TEST(OverlayEngineTest, DualTreeJoinMatchesBruteForceAndPerItemQueries) {
  Rng rng(9500);
  for (int round = 0; round < 5; ++round) {
    auto make_boxes = [&](size_t n) {
      std::vector<geom::BBox> boxes;
      for (size_t i = 0; i < n; ++i) {
        double x = rng.Uniform(0.0, 50.0);
        double y = rng.Uniform(0.0, 50.0);
        boxes.emplace_back(x, y, x + rng.Uniform(0.1, 6.0),
                           y + rng.Uniform(0.1, 6.0));
      }
      return boxes;
    };
    std::vector<geom::BBox> boxes_a = make_boxes(1 + rng.UniformInt(
                                                         uint64_t{120}));
    std::vector<geom::BBox> boxes_b = make_boxes(1 + rng.UniformInt(
                                                         uint64_t{120}));
    spatial::RTree tree_a(boxes_a);
    spatial::RTree tree_b(boxes_b);

    std::vector<std::pair<uint32_t, uint32_t>> joined;
    tree_a.DualTreeJoin(tree_b, &joined);

    std::vector<std::pair<uint32_t, uint32_t>> brute;
    for (uint32_t i = 0; i < boxes_a.size(); ++i) {
      for (uint32_t j = 0; j < boxes_b.size(); ++j) {
        if (boxes_a[i].Intersects(boxes_b[j])) brute.emplace_back(i, j);
      }
    }
    std::vector<std::pair<uint32_t, uint32_t>> sorted = joined;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, brute) << "round " << round;

    // The join's pair set restricted to one query box equals Query's.
    std::vector<uint32_t> hits;
    tree_a.Query(boxes_b[0], &hits);
    std::vector<uint32_t> from_join;
    for (const auto& [i, j] : joined) {
      if (j == 0) from_join.push_back(i);
    }
    std::sort(hits.begin(), hits.end());
    std::sort(from_join.begin(), from_join.end());
    EXPECT_EQ(hits, from_join) << "round " << round;

    // Join emission order is deterministic: a second run is identical.
    std::vector<std::pair<uint32_t, uint32_t>> joined_again;
    tree_a.DualTreeJoin(tree_b, &joined_again);
    EXPECT_EQ(joined, joined_again);
  }
}

TEST(OverlayEngineTest, QueryBufferOverloadsMatchReturningOverloads) {
  Rng rng(9600);
  std::vector<geom::BBox> boxes;
  for (size_t i = 0; i < 200; ++i) {
    double x = rng.Uniform(0.0, 30.0);
    double y = rng.Uniform(0.0, 30.0);
    boxes.emplace_back(x, y, x + rng.Uniform(0.1, 4.0),
                       y + rng.Uniform(0.1, 4.0));
  }
  spatial::RTree tree(boxes);
  std::vector<uint32_t> reused;
  for (int q = 0; q < 40; ++q) {
    double x = rng.Uniform(-2.0, 30.0);
    double y = rng.Uniform(-2.0, 30.0);
    geom::BBox query(x, y, x + rng.Uniform(0.1, 8.0),
                     y + rng.Uniform(0.1, 8.0));
    tree.Query(query, &reused);
    EXPECT_EQ(reused, tree.Query(query)) << "query " << q;
    geom::Point p{x, y};
    tree.QueryPoint(p, &reused);
    EXPECT_EQ(reused, tree.QueryPoint(p)) << "point query " << q;
  }
}

}  // namespace
}  // namespace geoalign::partition
