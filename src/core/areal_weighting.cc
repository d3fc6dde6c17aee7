#include "core/areal_weighting.h"

#include "sparse/sparse_ops.h"

namespace geoalign::core {

ArealWeighting::ArealWeighting(sparse::CsrMatrix measure_dm)
    : measure_dm_(std::move(measure_dm)),
      source_measures_(measure_dm_.RowSums()) {}

Result<CrosswalkResult> ArealWeighting::Crosswalk(
    const CrosswalkInput& input) const {
  if (input.objective_source.size() != measure_dm_.rows()) {
    return Status::InvalidArgument(
        "ArealWeighting: objective vector does not match measure DM rows");
  }
  CrosswalkResult result;

  sparse::CsrMatrix estimated = measure_dm_;
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(estimated, source_measures_, /*zero_tol=*/0.0,
                           &zero_rows);
  estimated.ScaleRows(input.objective_source);

  result.target_estimates = estimated.ColSums();

  result.estimated_dm = std::move(estimated);
  result.zero_rows = std::move(zero_rows);
  return result;
}

}  // namespace geoalign::core
