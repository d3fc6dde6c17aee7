#include "core/crosswalk_input.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace geoalign::core {

Status ValidateReference(const std::string& name,
                         common::ColumnView source_aggregates,
                         const sparse::CsrMatrix& disaggregation,
                         double consistency_tol) {
  for (double v : source_aggregates) {
    if (v < 0.0 || !std::isfinite(v)) {
      return Status::InvalidArgument(StrFormat(
          "reference '%s': negative or non-finite source aggregate",
          name.c_str()));
    }
  }
  for (double v : disaggregation.values()) {
    if (v < 0.0 || !std::isfinite(v)) {
      return Status::InvalidArgument(StrFormat(
          "reference '%s': negative or non-finite DM entry", name.c_str()));
    }
  }
  linalg::Vector sums = disaggregation.RowSums();
  for (size_t i = 0; i < sums.size(); ++i) {
    double lim = consistency_tol * std::max(1.0, source_aggregates[i]);
    if (std::fabs(sums[i] - source_aggregates[i]) > lim) {
      return Status::FailedPrecondition(StrFormat(
          "reference '%s': DM row %zu sums to %.9g, source aggregate "
          "is %.9g",
          name.c_str(), i, sums[i], source_aggregates[i]));
    }
  }
  return Status::OK();
}

std::vector<ReferenceAttributeView> BorrowReferences(
    const std::vector<ReferenceAttribute>& references) {
  std::vector<ReferenceAttributeView> views;
  views.reserve(references.size());
  for (const ReferenceAttribute& ref : references) {
    const sparse::CsrMatrix& dm = ref.disaggregation;
    views.push_back({ref.name, common::ColumnView(ref.source_aggregates),
                     sparse::CsrMatrix::BorrowStructure(dm, dm.values(),
                                                        nullptr),
                     nullptr});
  }
  return views;
}

Status CrosswalkInput::Validate(double consistency_tol) const {
  if (references.empty()) {
    return Status::InvalidArgument("CrosswalkInput: no reference attributes");
  }
  size_t num_source = objective_source.size();
  if (num_source == 0) {
    return Status::InvalidArgument("CrosswalkInput: empty objective vector");
  }
  for (double v : objective_source) {
    if (v < 0.0 || !std::isfinite(v)) {
      return Status::InvalidArgument(
          "CrosswalkInput: objective aggregates must be finite and >= 0");
    }
  }
  size_t num_target = references[0].disaggregation.cols();
  if (num_target == 0) {
    return Status::InvalidArgument("CrosswalkInput: zero target units");
  }
  for (const ReferenceAttribute& ref : references) {
    if (ref.source_aggregates.size() != num_source) {
      return Status::InvalidArgument(StrFormat(
          "reference '%s': source vector has %zu entries, expected %zu",
          ref.name.c_str(), ref.source_aggregates.size(), num_source));
    }
    if (ref.disaggregation.rows() != num_source ||
        ref.disaggregation.cols() != num_target) {
      return Status::InvalidArgument(StrFormat(
          "reference '%s': DM is %zux%zu, expected %zux%zu",
          ref.name.c_str(), ref.disaggregation.rows(),
          ref.disaggregation.cols(), num_source, num_target));
    }
    GEOALIGN_RETURN_IF_ERROR(ValidateReference(
        ref.name, ref.source_aggregates, ref.disaggregation, consistency_tol));
  }
  return Status::OK();
}

Result<size_t> CrosswalkInput::FindReference(const std::string& name) const {
  for (size_t k = 0; k < references.size(); ++k) {
    if (references[k].name == name) return k;
  }
  return Status::NotFound("no reference named '" + name + "'");
}

Result<CrosswalkInput> CrosswalkInput::WithReferenceSubset(
    const std::vector<size_t>& keep) const {
  if (keep.empty()) {
    return Status::InvalidArgument("WithReferenceSubset: empty subset");
  }
  CrosswalkInput out;
  out.objective_source = objective_source;
  for (size_t k : keep) {
    if (k >= references.size()) {
      return Status::OutOfRange("WithReferenceSubset: index out of range");
    }
    out.references.push_back(references[k]);
  }
  return out;
}

}  // namespace geoalign::core
