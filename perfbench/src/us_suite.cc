#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace synth = geoalign::synth;

UsSuite BuildUsSuite(double scale) {
  synth::UniverseOptions options;
  options.seed = kUniverseSeed;
  options.scale = scale;
  UsSuite suite;
  suite.universe = std::make_unique<synth::Universe>(
      synth::BuildUniverse(synth::UniverseId::kUnitedStates, options)
          .ValueOrDie());
  for (size_t t = 0; t < suite.universe->datasets.size(); ++t) {
    suite.loo.push_back(suite.universe->MakeLeaveOneOutInput(t).ValueOrDie());
  }
  return suite;
}

geoalign::core::GeoAlignOptions BenchOptions() {
  geoalign::core::GeoAlignOptions options;
  options.threads = BenchThreads();
  return options;
}

std::vector<std::string> UnitNames(char prefix, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(geoalign::StrFormat("%c%06zu", prefix, i));
  }
  return names;
}

double ComputedBytesPerColumn(
    const std::vector<const geoalign::sparse::CsrMatrix*>& dms) {
  double bytes = 0.0;
  for (const auto* dm : dms) {
    bytes += 16.0 * static_cast<double>(dm->nnz()) +
             8.0 * static_cast<double>(dm->rows() + 1);
  }
  if (!dms.empty()) {
    bytes += 8.0 * static_cast<double>(dms.front()->rows() +
                                       dms.front()->cols());
  }
  return bytes;
}

void CheckNrmse(const Args& args, double nrmse_mean, Report* report) {
  report->Extra("nrmse_mean", nrmse_mean, "ratio");
  if (args.scale != 1.0) return;
  const double rel =
      std::fabs(nrmse_mean - kPinnedUsLooNrmseMean) / kPinnedUsLooNrmseMean;
  if (!(rel <= 1e-6)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "nrmse_mean %.17g moved from the pinned %.17g", nrmse_mean,
                  kPinnedUsLooNrmseMean);
    report->Fail(buf);
  }
}

}  // namespace perfbench
