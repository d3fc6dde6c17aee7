#ifndef GEOALIGN_SPARSE_FUSED_EXECUTE_H_
#define GEOALIGN_SPARSE_FUSED_EXECUTE_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/thread_pool.h"
#include "sparse/csr_matrix.h"
#include "sparse/simd/isa.h"

namespace geoalign::sparse {

/// Reusable buffers for FusedAggregatesPanel: the chunk grid, the
/// lane-major panel arenas, and the active-operand staging arrays. One
/// workspace serves one concurrent execute at a time; serving loops
/// keep one per worker slot and reuse it across panels so the
/// steady-state kernel never touches the heap.
///
/// PreparePanel() grows buffers monotonically and counts every buffer
/// that actually grew in alloc_events() — the source of the
/// `execute.hot_path_allocs` counter (docs/observability.md). A
/// workspace prepared once for a plan's Spec reports zero further
/// events for every later execute of that plan.
class FusedWorkspace {
 public:
  /// Sizing for one shared CSR structure, computable once at plan
  /// compile time (the plan-compiled workspace spec).
  struct Spec {
    size_t rows = 0;
    size_t cols = 0;
    size_t max_row_nnz = 0;      ///< widest row of the shared structure
    size_t max_operands = 0;     ///< reference count upper bound
  };

  /// Derives the Spec of a shared structure (row/col counts, widest
  /// row) for `num_operands` aligned matrices.
  static Spec ComputeSpec(const CsrMatrix& structure, size_t num_operands);

  FusedWorkspace() = default;
  FusedWorkspace(const FusedWorkspace&) = delete;
  FusedWorkspace& operator=(const FusedWorkspace&) = delete;
  FusedWorkspace(FusedWorkspace&&) = default;
  FusedWorkspace& operator=(FusedWorkspace&&) = default;

  /// Ensures the column-panel buffers cover `spec` at panel width
  /// `width` (clamped to [1, simd::kMaxPanelWidth]). Monotonic: buffers
  /// never shrink; the panel arenas are sized cols × width and
  /// max_row_nnz × width doubles, so serving loops prepare once at the
  /// plan's panel width and every later panel execute is growth-free.
  void PreparePanel(const Spec& spec, size_t width);

  /// Cumulative count of buffer growth events across every PreparePanel.
  uint64_t alloc_events() const { return alloc_events_; }

 private:
  friend Status FusedAggregatesPanel(const struct FusedPanelInputs& in,
                                     const Spec& spec, simd::Isa isa,
                                     linalg::Vector* const* target_estimates,
                                     std::vector<size_t>* const* zero_rows,
                                     FusedWorkspace* workspace,
                                     CsrMatrix* const* estimated_dms);

  /// One row whose denominator fell below tolerance in at least one
  /// panel lane; bit p of `lanes` marks the affected lanes.
  struct PanelZeroRow {
    size_t row = 0;
    uint64_t lanes = 0;
  };

  // Chunk boundaries for spec.rows at kColSumGrain — fixed per plan,
  // so they are computed in PreparePanel, not per execute.
  std::vector<common::ChunkRange> chunks_;
  size_t chunk_rows_ = 0;  ///< rows the chunks_ cover

  // Active-operand staging: the value (and kFromAggregates aggregate)
  // arrays of the operands live in at least one lane.
  std::vector<const double*> active_values_;
  std::vector<const double*> active_aggs_;

  // Panel arenas, lane-major: the doubles of one logical cell's
  // `width` lanes are contiguous. The kernel walks its chunks
  // sequentially on one thread, so one partial + one accumulator per
  // workspace suffice.
  size_t panel_width_ = 0;                 ///< prepared lane capacity
  std::vector<double> panel_scratch_;      ///< max_row_nnz × width
  std::vector<double> panel_partial_;      ///< cols × width (per chunk)
  std::vector<double> panel_accum_;        ///< cols × width (combined)
  std::vector<double> panel_weights_;      ///< active ops × width
  std::vector<double> panel_row_;          ///< denom/inv/rscale, 3 × width
  std::vector<PanelZeroRow> panel_zero_;   ///< reserved to spec.rows

  uint64_t alloc_events_ = 0;
};

/// Inputs of the Eq. 14 + Eq. 17 pass: `width` objective columns
/// (1..simd::kMaxPanelWidth) executed against one shared CSR traversal.
/// All pointers are borrowed and must outlive the call.
struct FusedPanelInputs {
  /// Operand matrices sharing one CSR structure (the raw reference
  /// DMs of a PreparedReferenceSet).
  const std::vector<const CsrMatrix*>* mats = nullptr;
  /// Lane-major effective weights: lane_weights[mi * width + p] is
  /// operand mi's β_p / normalizer for panel lane p. Operands whose
  /// weight is exactly zero in EVERY lane are skipped (the legacy
  /// WeightedSum filter); a lane-local exact zero contributes ±0.0 to
  /// that lane's +0.0-seeded accumulator, which is bit-neutral.
  const double* lane_weights = nullptr;
  /// Panel width (lane count), 1..simd::kMaxPanelWidth.
  size_t width = 0;
  /// Per-lane objective columns a^s_o (each length rows), as borrowed
  /// views.
  const common::ColumnView* row_scales = nullptr;
  /// DenominatorMode::kFromAggregates: per-operand source-aggregate
  /// vectors (each length rows, indexed like *mats); each lane's
  /// denominator is then Σ_k w_k · aggregates_k[r], accumulated in
  /// operand order from 0.0. Null selects kFromDmRowSums (denominators
  /// from the weighted numerator's row sums, in-pass).
  const common::ColumnView* operand_aggregates = nullptr;
  /// Rows with |denominator| <= zero_tolerance are zero rows (per lane).
  double zero_tolerance = 0.0;
  /// Optional zero-row fallback DM (same shape as the operands) and its
  /// precomputed row sums; both set or both null. A lane's zero row
  /// with positive fallback support scatters row_scale[r]/fallback_sums[r]
  /// times the fallback row instead of vanishing.
  const CsrMatrix* fallback_dm = nullptr;
  const linalg::Vector* fallback_row_sums = nullptr;
};

/// The one Eq. 14 + Eq. 17 kernel: one traversal of the shared
/// structure serves `in.width` objective columns, accumulating the
/// β-weighted numerator per entry, applying the per-row denominator and
/// objective row scale, and scattering into per-chunk target partials
/// combined in chunk-index order. The per-entry work is vectorized
/// across panel lanes by the `isa` kernel table (sparse/simd/). Runs
/// inline on the calling thread — serving loops parallelize across
/// panels, not within one.
///
/// Bit-identity contract: lane p's `target_estimates[p]`,
/// `zero_rows[p]` and (when requested) `*estimated_dms[p]` carry
/// exactly the bits of the legacy materializing pipeline for column p
/// (kept as the test oracle, tests/oracles/crosswalk_uncompiled.h)
///   WeightedSum → RowSums/denominators → DivideRowsOrZero →
///   ScaleRows → [zero-row fallback rebuild] → ColSumsDeterministic
/// at every panel width and ISA. Structurally guaranteed: each lane
/// performs the scalar sequence of its own column (lane-wise kernels,
/// fixed in-lane order, no FMA), the chunk grid is ColSumsDeterministic's
/// kColSumGrain DeterministicChunks, and the per-chunk partials are
/// combined in ascending chunk index by a single thread. Entries that
/// pipeline prunes scatter exact ±0.0 here, which never flips a bit of
/// a +0.0-seeded partial. Verified differentially by
/// tests/simd_kernel_test.cc.
///
/// `target_estimates` and `zero_rows` are arrays of `in.width`
/// non-null pointers. `estimated_dms` is null (aggregates only, DM̂_o
/// never materialized) or an array of `in.width` non-null pointers
/// that receive each lane's DM̂_o: an entry is kept iff its numerator
/// and its numerator × 1/denominator are nonzero (the WeightedSum and
/// DivideRowsOrZero prunes), with value (acc · inv) · row_scale; zero
/// rows emit their scaled fallback row, if any; a lane with a zero row
/// under a fallback DM drops every exact zero (CooBuilder::Build's
/// rule for the rebuilt matrix).
Status FusedAggregatesPanel(const FusedPanelInputs& in,
                            const FusedWorkspace::Spec& spec, simd::Isa isa,
                            linalg::Vector* const* target_estimates,
                            std::vector<size_t>* const* zero_rows,
                            FusedWorkspace* workspace,
                            CsrMatrix* const* estimated_dms = nullptr);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_FUSED_EXECUTE_H_
