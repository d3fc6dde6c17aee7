#include "core/batch.h"

#include <memory>
#include <utility>

#include "common/thread_pool.h"

namespace geoalign::core {

namespace {

// The shape check shared by the owning and the view Create.
template <typename Reference>
Status ValidateShapes(const std::vector<Reference>& references) {
  if (references.empty()) {
    return Status::InvalidArgument("BatchCrosswalk: no references");
  }
  size_t num_source = references[0].source_aggregates.size();
  size_t num_target = references[0].disaggregation.cols();
  for (const Reference& ref : references) {
    if (ref.source_aggregates.size() != num_source ||
        ref.disaggregation.rows() != num_source ||
        ref.disaggregation.cols() != num_target) {
      return Status::InvalidArgument("BatchCrosswalk: reference '" +
                                     ref.name + "' shape mismatch");
    }
  }
  return Status::OK();
}

}  // namespace

BatchCrosswalk::BatchCrosswalk(CrosswalkPlan plan)
    : plan_(std::move(plan)) {}

Result<BatchCrosswalk> BatchCrosswalk::Create(
    std::vector<ReferenceAttribute> references, GeoAlignOptions options) {
  GEOALIGN_RETURN_IF_ERROR(ValidateShapes(references));
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkPlan plan,
                            CrosswalkPlan::Compile(references, options));
  return BatchCrosswalk(std::move(plan));
}

Result<BatchCrosswalk> BatchCrosswalk::Create(
    std::vector<ReferenceAttributeView> references, GeoAlignOptions options) {
  GEOALIGN_RETURN_IF_ERROR(ValidateShapes(references));
  GEOALIGN_ASSIGN_OR_RETURN(
      CrosswalkPlan plan,
      CrosswalkPlan::Compile(std::move(references), options));
  return BatchCrosswalk(std::move(plan));
}

Result<std::vector<BatchCrosswalk::BatchResult>> BatchCrosswalk::Run(
    const std::vector<Objective>& objectives) const {
  std::unique_ptr<common::ThreadPool> pool = common::MakePoolOrNull(
      common::ResolveThreadCount(plan_.options().threads));
  // BatchResult never carries the DM, so every column takes an
  // aggregates-only lane; the objectives are served in place.
  GEOALIGN_ASSIGN_OR_RETURN(
      std::vector<CrosswalkResult> full,
      plan_.ExecuteMany(
          objectives.size(),
          [&](size_t i, linalg::Vector*) -> Result<common::ColumnView> {
            if (objectives[i].source.size() != plan_.num_source_units()) {
              return Status::InvalidArgument("BatchCrosswalk: objective '" +
                                             objectives[i].name +
                                             "' wrong length");
            }
            return common::ColumnView(objectives[i].source);
          },
          pool.get(), ExecuteOutput::kAggregatesOnly));
  std::vector<BatchResult> out;
  out.reserve(full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    out.push_back({objectives[i].name, std::move(full[i].target_estimates),
                   std::move(full[i].weights),
                   std::move(full[i].zero_rows)});
  }
  return out;
}

}  // namespace geoalign::core
