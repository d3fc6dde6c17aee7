#include "checks.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

double RelErr(double got, double want) {
  if (got == want) return 0.0;
  double denom = std::fabs(want);
  return denom > 0.0 ? std::fabs(got - want) / denom : HUGE_VAL;
}

void Fail(CheckResult* r, std::string why) {
  if (r->ok) r->why = std::move(why);
  r->ok = false;
}

}  // namespace

CheckResult CheckCliOutput(
    const std::string& csv_text,
    const std::unordered_map<std::string, size_t>& target_index,
    const geoalign::linalg::Vector& expected,
    geoalign::linalg::Vector* estimates) {
  CheckResult r;
  estimates->assign(expected.size(), 0.0);
  std::vector<bool> seen(expected.size(), false);
  size_t pos = csv_text.find('\n');
  if (pos == std::string::npos || csv_text.compare(0, pos, "unit,value") != 0) {
    Fail(&r, "cli output lacks the unit,value header");
    return r;
  }
  ++pos;
  while (pos < csv_text.size()) {
    size_t eol = csv_text.find('\n', pos);
    if (eol == std::string::npos) eol = csv_text.size();
    size_t comma = csv_text.find(',', pos);
    if (comma == std::string::npos || comma > eol) {
      Fail(&r, "malformed cli output row");
      return r;
    }
    std::string unit = csv_text.substr(pos, comma - pos);
    std::string field = csv_text.substr(comma + 1, eol - comma - 1);
    char* end = nullptr;
    double value = std::strtod(field.c_str(), &end);
    auto it = target_index.find(unit);
    if (it == target_index.end() || end == field.c_str() || *end != '\0' ||
        !std::isfinite(value) || seen[it->second]) {
      Fail(&r, "bad cli output row for unit '" + unit + "'");
      return r;
    }
    seen[it->second] = true;
    (*estimates)[it->second] = value;
    double err = RelErr(value, expected[it->second]);
    r.max_rel_err = std::max(r.max_rel_err, err);
    if (!(err <= kRelTol)) Fail(&r, "cli estimate for '" + unit + "' off");
    pos = eol + 1;
  }
  for (size_t j = 0; j < expected.size(); ++j) {
    if (!seen[j] && expected[j] != 0.0) {
      Fail(&r, "cli output omits a target with a nonzero estimate");
      break;
    }
  }
  return r;
}

CheckResult CheckVolumePreservation(
    const geoalign::core::CrosswalkResult& result,
    const geoalign::linalg::Vector& objective) {
  CheckResult r;
  const auto& dm = result.estimated_dm;
  if (dm.rows() != objective.size()) {
    Fail(&r, "estimated DM has the wrong row count");
    return r;
  }
  std::vector<bool> zero(objective.size(), false);
  for (size_t i : result.zero_rows) {
    if (i < zero.size()) zero[i] = true;
  }
  geoalign::linalg::Vector sums = dm.RowSums();
  for (size_t i = 0; i < objective.size(); ++i) {
    if (zero[i]) {
      if (sums[i] != 0.0) Fail(&r, "a zero row carries mass");
      continue;
    }
    double err = RelErr(sums[i], objective[i]);
    r.max_rel_err = std::max(r.max_rel_err, err);
    if (!(err <= kRelTol)) Fail(&r, "Eq. 16 volume preservation violated");
  }
  return r;
}

CheckResult CheckExactBits(
    const std::vector<geoalign::core::CrosswalkResult>& got,
    const std::vector<geoalign::linalg::Vector>& want) {
  CheckResult r;
  if (got.size() != want.size()) {
    Fail(&r, "column count differs from the reference");
    return r;
  }
  for (size_t c = 0; c < got.size(); ++c) {
    const geoalign::linalg::Vector& g = got[c].target_estimates;
    if (g.size() != want[c].size() ||
        std::memcmp(g.data(), want[c].data(), g.size() * sizeof(double)) !=
            0) {
      for (size_t j = 0; j < std::min(g.size(), want[c].size()); ++j) {
        r.max_rel_err = std::max(r.max_rel_err, RelErr(g[j], want[c][j]));
      }
      Fail(&r, "column " + std::to_string(c) +
                   " differs from its per-column Realign bits");
    }
  }
  return r;
}

CheckResult CheckOverlayArea(const geoalign::partition::OverlayResult& result,
                             double total_area) {
  CheckResult r;
  r.max_rel_err = RelErr(result.TotalMeasure(), total_area);
  if (!(r.max_rel_err <= kRelTol)) {
    Fail(&r, "sum of cell areas differs from the layer area");
  }
  return r;
}

}  // namespace perfbench
