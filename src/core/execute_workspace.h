#ifndef GEOALIGN_CORE_EXECUTE_WORKSPACE_H_
#define GEOALIGN_CORE_EXECUTE_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "sparse/fused_execute.h"

namespace geoalign::core {

/// Per-plan scratch sizing, computed once at `CrosswalkPlan::Compile`
/// (`CrosswalkPlan::workspace_spec()`). Serving loops size their
/// workspace bank from this instead — nothing about buffer sizes is
/// decided per call.
struct ExecuteWorkspaceSpec {
  size_t num_references = 0;
  /// Kernel sizing (chunk count, widest row) of the prepared
  /// references' shared structure.
  sparse::FusedWorkspace::Spec fused;
};

/// Reusable per-execute buffers for every `CrosswalkPlan` execute: the
/// panel staging below plus the Eq. 14/17 kernel's arena. One
/// workspace serves one concurrent execute at a time; serving loops
/// keep one per worker slot and reuse it across objective columns so
/// steady-state executes never grow a buffer.
///
/// alloc_events() counts buffer growth (including the kernel arena's)
/// across the workspace's lifetime; each execute reports its delta as
/// `execute.hot_path_allocs` and counts a zero-growth execute as
/// `execute.workspace_reuse` (docs/observability.md). A workspace
/// prepared once reports zero growth for every later execute of that
/// plan up to the prepared width.
class ExecuteWorkspace {
 public:
  ExecuteWorkspace() = default;
  ExecuteWorkspace(const ExecuteWorkspace&) = delete;
  ExecuteWorkspace& operator=(const ExecuteWorkspace&) = delete;
  ExecuteWorkspace(ExecuteWorkspace&&) = default;
  ExecuteWorkspace& operator=(ExecuteWorkspace&&) = default;

  /// Per-panel scratch: the lane-major effective-weight staging plus
  /// the per-lane pointer arrays handed to sparse::FusedAggregatesPanel.
  struct PanelScratch {
    std::vector<double> lane_weights;  ///< references × width, lane-major
    std::vector<common::ColumnView> row_scales;
    std::vector<common::ColumnView> operand_aggregates;
    std::vector<linalg::Vector*> targets;
    std::vector<std::vector<size_t>*> zero_lists;
    std::vector<sparse::CsrMatrix*> dms;
    std::vector<size_t> lanes;  ///< panel-local → caller column index
  };

  /// Prepares for single-column executes (PreparePanel at width 1).
  /// `slots` is unused: a single execute runs inline.
  void Prepare(const ExecuteWorkspaceSpec& spec, size_t slots);

  /// Eagerly grows every buffer (this scratch plus the kernel arena)
  /// for panels of up to `width` columns. Monotonic: serving loops call
  /// it once at the plan's panel width so later executes are
  /// growth-free.
  void PreparePanel(const ExecuteWorkspaceSpec& spec, size_t width);

  /// The panel scratch (sized by PreparePanel).
  PanelScratch& panel() { return panel_; }

  /// The Eq. 14/17 kernel's buffer arena.
  sparse::FusedWorkspace& fused() { return fused_; }

  /// Cumulative buffer growth events, kernel arena included.
  uint64_t alloc_events() const {
    return alloc_events_ + fused_.alloc_events();
  }

 private:
  sparse::FusedWorkspace fused_;
  PanelScratch panel_;
  uint64_t alloc_events_ = 0;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_EXECUTE_WORKSPACE_H_
