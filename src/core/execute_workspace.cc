#include "core/execute_workspace.h"

namespace geoalign::core {

void ExecuteWorkspace::Prepare(const ExecuteWorkspaceSpec& spec,
                               size_t /*slots*/) {
  PreparePanel(spec, 1);
}

void ExecuteWorkspace::PreparePanel(const ExecuteWorkspaceSpec& spec,
                                    size_t width) {
  size_t need = spec.num_references * width;
  if (panel_.lane_weights.size() < need) {
    ++alloc_events_;
    panel_.lane_weights.resize(need);
  }
  bool grew = false;
  auto reserve_ptrs = [&grew](auto& v, size_t n) {
    if (v.capacity() < n) {
      grew = true;
      v.reserve(n);
    }
  };
  reserve_ptrs(panel_.row_scales, width);
  reserve_ptrs(panel_.operand_aggregates, spec.num_references);
  reserve_ptrs(panel_.targets, width);
  reserve_ptrs(panel_.zero_lists, width);
  reserve_ptrs(panel_.dms, width);
  reserve_ptrs(panel_.lanes, width);
  if (grew) ++alloc_events_;
  fused_.PreparePanel(spec.fused, width);
}

}  // namespace geoalign::core
