// Per-op correctness checks. Each takes an op's output and the
// reference it must match, and reports pass/fail plus the largest
// relative deviation seen (max_rel_err). They use product entry points
// only, and are pure functions so the self-test can feed them a
// deliberately corrupted output.
#ifndef GEOALIGN_PERFBENCH_CHECKS_H_
#define GEOALIGN_PERFBENCH_CHECKS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/interpolator.h"
#include "linalg/vector_ops.h"
#include "partition/overlay.h"

namespace perfbench {

struct CheckResult {
  bool ok = true;
  double max_rel_err = 0.0;
  std::string why;  ///< first failure, empty when ok
};

/// Relative tolerance of the cli and Eq. 16 checks.
inline constexpr double kRelTol = 1e-9;

/// cli: the `unit,value` CSV the CLI wrote, against the in-process
/// CrosswalkPlan::Execute estimates (target index order). Every row
/// must name a known target once and match at kRelTol; targets the
/// CLI omits must have an expected estimate of exactly 0. The parsed
/// estimates land in `*estimates` (index order, omitted = 0).
CheckResult CheckCliOutput(
    const std::string& csv_text,
    const std::unordered_map<std::string, size_t>& target_index,
    const geoalign::linalg::Vector& expected,
    geoalign::linalg::Vector* estimates);

/// single_shot: Eq. 16 volume preservation. Every source row outside
/// `zero_rows` must sum to its objective value at kRelTol; zero rows
/// must carry no mass.
CheckResult CheckVolumePreservation(
    const geoalign::core::CrosswalkResult& result,
    const geoalign::linalg::Vector& objective);

/// portal: every column's target_estimates bit-identical to the
/// per-column Realign result computed in set-up.
CheckResult CheckExactBits(
    const std::vector<geoalign::core::CrosswalkResult>& got,
    const std::vector<geoalign::linalg::Vector>& want);

/// overlay: sum of cell areas against the total layer area.
CheckResult CheckOverlayArea(const geoalign::partition::OverlayResult& result,
                             double total_area);

}  // namespace perfbench

#endif  // GEOALIGN_PERFBENCH_CHECKS_H_
