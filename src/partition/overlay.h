#ifndef GEOALIGN_PARTITION_OVERLAY_H_
#define GEOALIGN_PARTITION_OVERLAY_H_

#include <cstdint>
#include <vector>

#include "partition/box_partition.h"
#include "partition/cell_partition.h"
#include "partition/interval_partition.h"
#include "partition/polygon_partition.h"
#include "sparse/csr_matrix.h"

namespace geoalign::partition {

/// One intersection unit u^st_k = u^s_i ∩ u^t_j with its measure.
struct IntersectionCell {
  uint32_t source;
  uint32_t target;
  double measure;
};

/// The intersection unit system U^st of a source and a target unit
/// system (paper §3.1), with measures. This is the geometric half of
/// what an ArcGIS-style overlay produces; attribute disaggregation
/// matrices are built on top of it (disaggregation.h).
struct OverlayResult {
  uint32_t num_source = 0;
  uint32_t num_target = 0;

  /// Non-empty intersection units, sorted by (source, target).
  std::vector<IntersectionCell> cells;

  /// For cell-partition overlays: atom -> index into `cells`; empty
  /// for geometric overlays.
  std::vector<uint32_t> atom_to_cell;

  /// The measure (area) disaggregation matrix DM_area[i,j] =
  /// |u^s_i ∩ u^t_j| — the reference the areal weighting method uses.
  sparse::CsrMatrix MeasureDm() const;

  /// Sum of cell measures (should equal the universe measure).
  double TotalMeasure() const;
};

/// Exact 1-D overlay by merging breakpoints. Both partitions must span
/// the same universe interval (within `tol`).
Result<OverlayResult> OverlayIntervals(const IntervalPartition& source,
                                       const IntervalPartition& target,
                                       double tol = 1e-9);

/// Exact n-D product-grid overlay (per-axis interval overlays
/// combined). Partitions must have equal dimension and spans.
Result<OverlayResult> OverlayBoxes(const BoxPartition& source,
                                   const BoxPartition& target,
                                   double tol = 1e-9);

/// Reusable scratch for the geometric overlay (overlay_prepared.h).
class OverlayWorkspace;

/// Options for the geometric overlay engine.
struct OverlayOptions {
  /// Cells with area <= min_area are dropped.
  double min_area = 0.0;

  /// Worker threads for candidate clipping (0 = one per hardware
  /// thread, 1 = inline). Any thread count produces bit-identical
  /// cells: the dual-tree candidate join emits a pair list whose order
  /// is a pure function of the two R-trees, each pair's area is
  /// computed independently, and the final (source, target) sort has
  /// unique keys.
  size_t threads = 1;

  /// Enables the value-changing geometry fast paths: containment
  /// pairs (one polygon's bbox provably inside the other) short-cut to
  /// the contained polygon's cached area, and convex/hole-free pairs
  /// clip outer rings directly instead of summing the triangle-fan
  /// double loop. Both are exact in real arithmetic but may differ
  /// from the fan path in the last ulp, so they are opt-in; with
  /// fast_paths=false the engine is bit-identical to the pre-engine
  /// overlay kept as a test oracle (tests/oracles/overlay_reference.h).
  bool fast_paths = false;

  /// Optional caller-owned scratch, reused across overlays. With a
  /// warmed workspace the hot section performs zero heap allocations
  /// (the `overlay.hot_path_allocs` counter stays flat), and a repeat
  /// overlay of the same two partitions also serves the prepared
  /// layers and the dual-tree candidate join from the workspace's
  /// cache (see OverlayWorkspace::Prepared for the lifetime contract).
  /// Null = the engine uses an internal workspace for this call.
  OverlayWorkspace* workspace = nullptr;
};

/// Geometric 2-D overlay: the intersection area of every
/// bbox-candidate pair of units. Candidates come from a simultaneous
/// R-tree×R-tree join (spatial::RTree::DualTreeJoin); per-unit signed
/// fans and triangle bboxes are cached once per layer
/// (partition::PreparedOverlayLayer) instead of recomputed per pair;
/// all intermediate rings come from workspace scratch.
Result<OverlayResult> OverlayPolygons(const PolygonPartition& source,
                                      const PolygonPartition& target,
                                      const OverlayOptions& options);

/// Legacy-signature convenience wrapper (fast paths off).
Result<OverlayResult> OverlayPolygons(const PolygonPartition& source,
                                      const PolygonPartition& target,
                                      double min_area = 0.0,
                                      size_t threads = 1);

/// Exact label-join overlay of two partitions of the SAME atom space:
/// cell (i, j) collects atoms with source label i and target label j.
Result<OverlayResult> OverlayCells(const CellPartition& source,
                                   const CellPartition& target);

}  // namespace geoalign::partition

#endif  // GEOALIGN_PARTITION_OVERLAY_H_
