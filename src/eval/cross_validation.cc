#include "eval/cross_validation.h"

#include <cmath>
#include <limits>

#include "core/regression.h"
#include "eval/metrics.h"

namespace geoalign::eval {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double CvReport::Lookup(const std::string& dataset,
                        const std::string& method) const {
  for (const CvCell& c : cells) {
    if (c.dataset == dataset && c.method == method) {
      return c.skipped ? kNaN : c.nrmse;
    }
  }
  return kNaN;
}

double CvReport::MeanNrmse(const std::string& method) const {
  double acc = 0.0;
  size_t n = 0;
  for (const CvCell& c : cells) {
    if (c.method == method && !c.skipped) {
      acc += c.nrmse;
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : kNaN;
}

Result<CvReport> RunCrossValidation(const synth::Universe& universe,
                                    const CvOptions& options) {
  CvReport report;
  report.universe = universe.name;

  core::GeoAlign geoalign(options.geoalign_options);
  core::ArealWeighting areal(universe.measure_dm);

  for (size_t t = 0; t < universe.datasets.size(); ++t) {
    const synth::Dataset& test = universe.datasets[t];
    GEOALIGN_ASSIGN_OR_RETURN(core::CrosswalkInput input,
                              universe.MakeLeaveOneOutInput(t));
    GEOALIGN_RETURN_IF_ERROR(input.Validate());

    // GeoAlign with all remaining references, through a compiled plan.
    {
      GEOALIGN_ASSIGN_OR_RETURN(core::CrosswalkPlan plan,
                                geoalign.Compile(input));
      GEOALIGN_ASSIGN_OR_RETURN(core::CrosswalkResult res,
                                plan.Execute(input.objective_source));
      CvCell cell;
      cell.dataset = test.name;
      cell.method = "GeoAlign";
      cell.rmse = Rmse(res.target_estimates, test.target);
      cell.nrmse = Nrmse(res.target_estimates, test.target);
      report.cells.push_back(std::move(cell));
    }

    // Dasymetric baselines, each bound to one reference.
    for (const std::string& ref_name : options.dasymetric_references) {
      CvCell cell;
      cell.dataset = test.name;
      cell.method = "dasymetric(" + ref_name + ")";
      if (ref_name == test.name) {
        // The reference under test is withheld (paper §4.1).
        cell.skipped = true;
        cell.nrmse = kNaN;
        cell.rmse = kNaN;
        report.cells.push_back(std::move(cell));
        continue;
      }
      auto ref_idx = input.FindReference(ref_name);
      if (!ref_idx.ok()) {
        return Status::InvalidArgument("cross-validation: universe has no '" +
                                       ref_name + "' reference");
      }
      core::Dasymetric dasy(*ref_idx, cell.method);
      // Baseline interpolators have no compiled-plan form.
      GEOALIGN_ASSIGN_OR_RETURN(
          core::CrosswalkResult res,
          dasy.Crosswalk(input));  // NOLINT(geoalign-plan-bypass)
      cell.rmse = Rmse(res.target_estimates, test.target);
      cell.nrmse = Nrmse(res.target_estimates, test.target);
      report.cells.push_back(std::move(cell));
    }

    // OLS regression baseline (never skipped; it has no single
    // reference to withhold).
    if (options.run_regression) {
      core::RegressionBaseline reg;
      // Baseline interpolators have no compiled-plan form.
      GEOALIGN_ASSIGN_OR_RETURN(
          core::CrosswalkResult res,
          reg.Crosswalk(input));  // NOLINT(geoalign-plan-bypass)
      CvCell cell;
      cell.dataset = test.name;
      cell.method = "regression";
      cell.rmse = Rmse(res.target_estimates, test.target);
      cell.nrmse = Nrmse(res.target_estimates, test.target);
      report.cells.push_back(std::move(cell));
    }

    // Areal weighting (skipped when the test dataset IS area).
    if (options.run_areal_weighting) {
      CvCell cell;
      cell.dataset = test.name;
      cell.method = "areal_weighting";
      if (test.name == "Area (Sq. Miles)") {
        cell.skipped = true;
        cell.nrmse = kNaN;
        cell.rmse = kNaN;
      } else {
        // Baseline interpolators have no compiled-plan form.
        GEOALIGN_ASSIGN_OR_RETURN(
            core::CrosswalkResult res,
            areal.Crosswalk(input));  // NOLINT(geoalign-plan-bypass)
        cell.rmse = Rmse(res.target_estimates, test.target);
        cell.nrmse = Nrmse(res.target_estimates, test.target);
      }
      report.cells.push_back(std::move(cell));
    }
  }
  return report;
}

}  // namespace geoalign::eval
