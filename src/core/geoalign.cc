#include "core/geoalign.h"

#include <utility>

namespace geoalign::core {

GeoAlign::GeoAlign(GeoAlignOptions options) : options_(std::move(options)) {}

Result<linalg::Vector> GeoAlign::LearnWeights(
    const CrosswalkInput& input) const {
  GEOALIGN_ASSIGN_OR_RETURN(auto system,
                            internal::BuildNormalizedSystem(input));
  return internal::SolveWeightsForDesign(system.first, system.second,
                                         options_);
}

Result<CrosswalkPlan> GeoAlign::Compile(const CrosswalkInput& input) const {
  return CrosswalkPlan::Compile(input, options_);
}

Result<CrosswalkResult> GeoAlign::Crosswalk(
    const CrosswalkInput& input) const {
  // Thin compile-then-execute wrapper: one-shot callers pay one plan
  // compilation (what the legacy path redid inline anyway); repeated
  // callers should hold the plan. The plan dies inside this call, so it
  // compiles over borrowed views of `input` and copies nothing.
  // Bit-identical to the per-call oracle (tests/oracles/) by the
  // CrosswalkPlan contract, which plan_equivalence_test pins.
  GEOALIGN_ASSIGN_OR_RETURN(
      CrosswalkPlan plan,
      CrosswalkPlan::Compile(BorrowReferences(input.references), options_));
  return plan.Execute(input.objective_source);
}

}  // namespace geoalign::core
