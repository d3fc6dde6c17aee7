#ifndef GEOALIGN_EVAL_CROSS_VALIDATION_H_
#define GEOALIGN_EVAL_CROSS_VALIDATION_H_

#include <string>
#include <vector>

#include "core/areal_weighting.h"
#include "core/dasymetric.h"
#include "core/geoalign.h"
#include "synth/universe.h"

namespace geoalign::eval {

/// One (test dataset, method) measurement of the paper's §4.1
/// cross-validated protocol.
struct CvCell {
  std::string dataset;
  std::string method;
  double nrmse = 0.0;
  double rmse = 0.0;
  /// Methods are skipped when their reference *is* the test dataset
  /// (paper §4.1) — skipped cells carry NaNs and skipped=true.
  bool skipped = false;
};

/// Results of a full cross-validation sweep over one universe.
struct CvReport {
  std::string universe;
  std::vector<CvCell> cells;

  /// NRMSE of (dataset, method), NaN if missing/skipped.
  double Lookup(const std::string& dataset, const std::string& method) const;

  /// Mean NRMSE of a method over its non-skipped datasets.
  double MeanNrmse(const std::string& method) const;
};

/// Options for the cross-validation run.
struct CvOptions {
  /// Dasymetric baselines are run with these reference datasets
  /// (paper: the three population-level references). Names must exist
  /// in the universe.
  std::vector<std::string> dasymetric_references = {
      "Population", "USPS Residential Address", "USPS Business Address"};
  /// Include the areal weighting baseline (measure DM reference).
  bool run_areal_weighting = true;
  /// Include the OLS regression baseline (paper §5's regression
  /// family), method name "regression".
  bool run_regression = false;
  /// GeoAlign configuration.
  core::GeoAlignOptions geoalign_options;
};

/// Runs the paper's cross-validated accuracy protocol on `universe`:
/// every dataset in turn is the objective; the remaining datasets are
/// GeoAlign's references; each dasymetric baseline uses its single
/// named reference; areal weighting uses the measure DM. NRMSE is
/// computed against the exact target-level ground truth.
Result<CvReport> RunCrossValidation(const synth::Universe& universe,
                                    const CvOptions& options = {});

}  // namespace geoalign::eval

#endif  // GEOALIGN_EVAL_CROSS_VALIDATION_H_
