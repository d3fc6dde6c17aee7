#ifndef GEOALIGN_CORE_CROSSWALK_PLAN_H_
#define GEOALIGN_CORE_CROSSWALK_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/crosswalk_input.h"
#include "core/execute_workspace.h"
#include "core/geoalign_options.h"
#include "core/interpolator.h"
#include "linalg/matrix.h"
#include "sparse/prepared_reference.h"

namespace geoalign::core {

namespace internal {

/// Builds the normalized design matrix A (columns = a'^s_rk) and b
/// (= a'^s_o) of Eq. 15 for `input` — GeoAlign::LearnWeights' system,
/// shared with the per-call test oracle (tests/oracles/).
Result<std::pair<linalg::Matrix, linalg::Vector>> BuildNormalizedSystem(
    const CrosswalkInput& input);

/// Learns β for a prebuilt normalized design (Eq. 15) under every
/// WeightSolver — the solver dispatch previously private to
/// GeoAlign::Crosswalk, shared verbatim by the per-call oracle and the
/// compiled plan so both learn bit-identical weights.
Result<linalg::Vector> SolveWeightsForDesign(const linalg::Matrix& a,
                                             const linalg::Vector& b,
                                             const GeoAlignOptions& options);

}  // namespace internal

/// The compiled, objective-independent half of a GeoAlign crosswalk
/// (Algorithm 1): prepared references, the normalized design matrix of
/// Eq. 15 (plus its Gram matrix for the simplex solver), and a
/// snapshot of the zero-row fallback DM. Compile once, then Execute
/// for any number of objective columns.
///
/// Bit-identity contract: for every objective vector and every
/// {ScaleMode, WeightSolver, DenominatorMode, ZeroRowFallback} ×
/// threads combination (threads only schedule ExecuteMany groups),
/// `Compile(input, opts) → Execute(obj)` produces exactly the bits of
/// the legacy per-call path (kept as a test oracle,
/// tests/oracles/crosswalk_uncompiled.h).
/// The hoisted quantities make that possible:
///  - the simplex solve goes through SolveSimplexLsFromNormalEquations,
///    which is the literal tail of SolveSimplexLeastSquares, so a
///    precomputed Gram matrix changes nothing;
///  - DMs stay raw with a scalar normalizer folded into the per-execute
///    effective weights, exactly as the legacy loop does (pre-scaling
///    the matrix values would reorder IEEE divisions);
///  - every prepared DM sits on one shared structure (an unaligned
///    reference set is scattered onto the union of its patterns, see
///    sparse::PreparedReferenceSet);
///  - every execute — single column or ExecuteMany panel, either output
///    shape — runs the one Eq. 14/17 kernel, sparse::FusedAggregatesPanel.
///    It accumulates per entry in operand order from 0.0 (the general
///    scatter-gather kernel's addition sequence), scatters on
///    ColSumsDeterministic's chunk grid, and emits DM̂_o with the legacy
///    prunes, so union fillers add exact +0.0 and never reach DM̂_o.
///
/// Immutable after Compile and safe to share across threads: Execute
/// is const and touches no mutable state. Move-only (the prepared set
/// holds internal pointers that survive moves but not copies).
class CrosswalkPlan {
 public:
  /// The one compile body: compiles the objective-independent work
  /// for `references`. The reference aggregate columns stay borrowed
  /// memory all the way into the prepared set — nothing is duplicated
  /// (the `ingest.bytes_copied` counter stays flat). The viewed memory
  /// must outlive the plan; attach keepalives to the views to make that
  /// automatic. Surfaces the same errors as the legacy path's per-call
  /// preprocessing: no references, shape mismatches, non-normalizable
  /// aggregates, and a missing fallback DM under
  /// ZeroRowFallback::kFallbackDm. When a fallback DM is supplied it is
  /// snapshotted, so the plan never dangles on the caller's pointer.
  static Result<CrosswalkPlan> Compile(
      std::vector<ReferenceAttributeView> references,
      const GeoAlignOptions& options);

  /// Owning adapter over the view Compile, for plans that must outlive
  /// the caller's references: copies every aggregate column (and the
  /// DMs when they already share one structure) into plan-owned memory
  /// and charges the copy to `ingest.bytes_copied`. Same errors, and
  /// the same fingerprint for the same bytes, as the view Compile, so
  /// PlanCache keys are ingest-path independent.
  static Result<CrosswalkPlan> Compile(
      const std::vector<ReferenceAttribute>& references,
      const GeoAlignOptions& options);

  /// Same, for `input.references` (the objective column is ignored).
  static Result<CrosswalkPlan> Compile(const CrosswalkInput& input,
                                       const GeoAlignOptions& options);

  CrosswalkPlan(CrosswalkPlan&&) = default;
  CrosswalkPlan& operator=(CrosswalkPlan&&) = default;
  CrosswalkPlan(const CrosswalkPlan&) = delete;
  CrosswalkPlan& operator=(const CrosswalkPlan&) = delete;

  /// Runs weight learning (Eq. 15) + disaggregation (Eq. 14) +
  /// re-aggregation (Eq. 17) for one objective column, inline on the
  /// calling thread. `output` selects the result shape:
  /// ExecuteOutput::kAggregatesOnly never materializes DM̂_o.
  /// Objective columns are borrowed views (a `linalg::Vector` converts
  /// implicitly) valid for the duration of the call only.
  Result<CrosswalkResult> Execute(
      common::ColumnView objective_source,
      ExecuteOutput output = ExecuteOutput::kFullDm) const;

  /// Full serving-path entry: output shape plus an optional reusable
  /// workspace (sized per workspace_spec(); grown only if needed, so
  /// steady-state executes through a prepared workspace perform zero
  /// hot-path buffer growth — the `execute.hot_path_allocs` /
  /// `execute.workspace_reuse` counters). A workspace serves one
  /// concurrent execute at a time; nullptr uses a per-call local one.
  /// The execute is a width-1 panel run inline; `pool` is unused.
  /// Bit-identity: output shape and workspace reuse never change any
  /// produced value — `target_estimates`, `weights`, and `zero_rows`
  /// carry exactly the kFullDm/no-workspace bits.
  Result<CrosswalkResult> ExecuteWith(common::ColumnView objective_source,
                                      common::ThreadPool* pool,
                                      ExecuteOutput output,
                                      ExecuteWorkspace* workspace) const;

  /// Executes `count` objective columns as column panels
  /// (aggregates-only): weight learning stays scalar per column, then
  /// one shared-structure traversal per panel serves every lane
  /// through sparse::FusedAggregatesPanel, dispatched on the active
  /// ISA (sparse/simd/). `results[i]` receives column i's result or
  /// error — the same per-column statuses and exactly the same bits as
  /// per-column ExecuteWith(kAggregatesOnly) calls, at every panel
  /// width and ISA.
  ///
  /// `objectives` is an array of `count` borrowed column views and
  /// `results` an array of `count` non-null pointers; `workspace` is
  /// the reusable per-slot arena (nullptr uses a per-call local one).
  /// ExecuteMany slices its columns into panels of panel_width() and
  /// runs one call per panel; counts above simd::kMaxPanelWidth are
  /// split internally.
  void ExecutePanelWith(const common::ColumnView* objectives,
                        std::optional<Result<CrosswalkResult>>* const* results,
                        size_t count, ExecuteWorkspace* workspace) const;

  /// The serving panel width (columns per ExecuteMany group) — derived
  /// at execute time from the active SIMD ISA: 8 for the scalar
  /// kernels, 16 for a vector ISA. Deliberately NOT part of the plan
  /// or its fingerprint: a PlanCache entry compiled under one ISA must
  /// execute identically under any other, so ExecuteMany asks the plan
  /// at execute time instead of baking a width into cached state (no
  /// serving surface takes a caller width).
  size_t panel_width() const;

  /// Supplies column `i` of ExecuteMany: a view of caller memory, or of
  /// `*scratch` after resolving the column into it (valid until the
  /// column has executed). An error becomes column i's status.
  using ColumnSource = std::function<Result<common::ColumnView>(
      size_t i, linalg::Vector* scratch)>;

  /// Executes `count` objective columns over this one plan — the
  /// paper-§6 portal shape, and the single many-column entry behind
  /// CrosswalkPipeline::RealignMany.
  ///  - Groups: panel_width() columns per group, one
  ///    sparse::FusedAggregatesPanel call each, for both output shapes
  ///    (kFullDm panels also emit every lane's DM̂_o).
  ///  - Pool: groups run concurrently when `pool` has more than one
  ///    worker and there is more than one group; otherwise they run in
  ///    order on the calling thread (nullptr = fully sequential).
  ///  - Workspaces: one per concurrently running group, prepared once
  ///    from workspace_spec(), so steady-state groups grow nothing.
  ///  - Each group resolves its own columns through `column_source`
  ///    inside its task (called concurrently for distinct `i`).
  /// Results are index-aligned with the columns and bit-identical to
  /// per-column ExecuteWith at every width and thread count; on error
  /// the lowest-index failing column's status is returned. Records the
  /// realign.* metrics (docs/observability.md) under a realign.batch
  /// span, attributed to the caller's request.
  Result<std::vector<CrosswalkResult>> ExecuteMany(
      size_t count, const ColumnSource& column_source,
      common::ThreadPool* pool, ExecuteOutput output) const;

  /// Weight learning only (Eq. 15) — β for one objective column.
  Result<linalg::Vector> LearnWeights(
      common::ColumnView objective_source) const;

  size_t num_source_units() const { return prepared_.num_source(); }
  size_t num_target_units() const { return prepared_.num_target(); }
  const GeoAlignOptions& options() const { return options_; }
  const sparse::PreparedReferenceSet& references() const { return prepared_; }

  /// Content fingerprint of the prepared reference set (names,
  /// aggregates, CSR arrays) — the reference half of a PlanCache key.
  uint64_t fingerprint() const { return prepared_.fingerprint(); }

  /// Scratch sizing for ExecuteWorkspace, fixed at Compile time —
  /// serving loops size their workspace bank from this once instead of
  /// re-resolving scratch sizes per call.
  const ExecuteWorkspaceSpec& workspace_spec() const {
    return workspace_spec_;
  }

 private:
  CrosswalkPlan(sparse::PreparedReferenceSet prepared,
                GeoAlignOptions options);

  /// β for an already max-normalized objective vector.
  Result<linalg::Vector> SolveWeightsNormalized(
      const linalg::Vector& b_normalized) const;

  /// One panel (count <= simd::kMaxPanelWidth): per-column weight
  /// solves, lane-major weight staging, one FusedAggregatesPanel call
  /// (emitting DM̂_o when `output` is kFullDm), per-column result fill.
  /// Every execute entry point runs through here.
  void ExecuteOnePanel(const common::ColumnView* objectives,
                       std::optional<Result<CrosswalkResult>>* const* results,
                       size_t count, ExecuteWorkspace* ws,
                       ExecuteOutput output) const;

  sparse::PreparedReferenceSet prepared_;
  GeoAlignOptions options_;
  linalg::Matrix design_;  ///< Eq. 15 design A (normalized columns)
  linalg::Matrix gram_;    ///< A^T A; populated for kSimplex only
  /// Owned snapshot of options.fallback_dm (kFallbackDm only); after
  /// Compile, options_.fallback_dm points here, never at caller memory.
  std::shared_ptr<const sparse::CsrMatrix> fallback_dm_;
  linalg::Vector fallback_row_sums_;  ///< row sums of *fallback_dm_
  bool fallback_shape_ok_ = false;
  ExecuteWorkspaceSpec workspace_spec_;  ///< scratch sizing, see accessor
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_CROSSWALK_PLAN_H_
