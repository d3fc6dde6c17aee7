#include "core/dasymetric.h"

#include "sparse/sparse_ops.h"

namespace geoalign::core {

Dasymetric::Dasymetric(size_t reference_index, std::string display_name)
    : reference_index_(reference_index),
      display_name_(std::move(display_name)) {}

Dasymetric::Dasymetric(std::string reference_name)
    : by_name_(true),
      reference_name_(std::move(reference_name)),
      display_name_("dasymetric(" + reference_name_ + ")") {}

std::string Dasymetric::name() const { return display_name_; }

Result<size_t> Dasymetric::ResolveReference(
    const CrosswalkInput& input) const {
  if (by_name_) return input.FindReference(reference_name_);
  if (reference_index_ >= input.references.size()) {
    return Status::OutOfRange("Dasymetric: reference index out of range");
  }
  return reference_index_;
}

Result<CrosswalkResult> Dasymetric::Crosswalk(
    const CrosswalkInput& input) const {
  GEOALIGN_ASSIGN_OR_RETURN(size_t ref_idx, ResolveReference(input));
  const ReferenceAttribute& ref = input.references[ref_idx];
  if (ref.source_aggregates.size() != input.objective_source.size()) {
    return Status::InvalidArgument("Dasymetric: size mismatch");
  }
  CrosswalkResult result;

  sparse::CsrMatrix estimated = ref.disaggregation;
  std::vector<size_t> zero_rows;
  sparse::DivideRowsOrZero(estimated, ref.source_aggregates,
                           /*zero_tol=*/0.0, &zero_rows);
  estimated.ScaleRows(input.objective_source);

  result.target_estimates = estimated.ColSums();

  result.estimated_dm = std::move(estimated);
  result.zero_rows = std::move(zero_rows);
  return result;
}

}  // namespace geoalign::core
