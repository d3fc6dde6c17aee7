#ifndef GEOALIGN_CORE_GEOALIGN_H_
#define GEOALIGN_CORE_GEOALIGN_H_

#include "core/crosswalk_plan.h"
#include "core/geoalign_options.h"
#include "core/interpolator.h"

namespace geoalign::core {

/// The paper's contribution (Algorithm 1): an adaptive multi-reference
/// crosswalk.
///
///  1. Weight learning — β = argmin ||A β - b||² on the probability
///     simplex, where A's columns are the max-normalized reference
///     aggregate vectors at source level and b is the normalized
///     objective (Eq. 15).
///  2. Disaggregation — DM̂_o[i,j] = (Σ_k β_k DM'_rk[i,j]) /
///     (Σ_k β_k a'^s_rk[i]) · a^s_o[i] (Eq. 14).
///  3. Re-aggregation — â^t_o = column sums of DM̂_o (Eq. 17).
///
/// Dimension-independent: nothing here inspects geometry, only
/// aggregate vectors and disaggregation matrices.
///
/// Two ways to run it:
///  - `Crosswalk(input)` — the Interpolator entry point; internally a
///    thin Compile → Execute wrapper.
///  - `Compile(input) → CrosswalkPlan`, then `plan.Execute(objective)`
///    for each objective column — amortizes every objective-
///    independent step (normalization, design/Gram assembly, DM
///    walks) across columns. Bit-identical to `Crosswalk` per the
///    CrosswalkPlan contract.
class GeoAlign : public Interpolator {
 public:
  explicit GeoAlign(GeoAlignOptions options = {});

  std::string name() const override { return "GeoAlign"; }

  Result<CrosswalkResult> Crosswalk(
      const CrosswalkInput& input) const override;

  /// Compiles the objective-independent half of Algorithm 1 for
  /// `input.references` (the objective column is ignored). The plan is
  /// immutable, independent of this interpolator's lifetime, and
  /// reusable for any number of `Execute` calls.
  Result<CrosswalkPlan> Compile(const CrosswalkInput& input) const;

  /// Runs only step 1 and returns β. Exposed for experiments that
  /// inspect weights (e.g. §4.4.2 reference-selection analysis).
  Result<linalg::Vector> LearnWeights(const CrosswalkInput& input) const;

  const GeoAlignOptions& options() const { return options_; }

 private:
  GeoAlignOptions options_;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_GEOALIGN_H_
