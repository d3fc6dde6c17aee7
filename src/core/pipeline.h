#ifndef GEOALIGN_CORE_PIPELINE_H_
#define GEOALIGN_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/geoalign.h"

namespace geoalign::core {

/// End-to-end aggregate data integration (the system sketched in the
/// paper's conclusion): joins an aggregate table reported on source
/// units with a table reported on target units by realigning the
/// former — the Fig. 1 steam-consumption ⋈ per-capita-income join.
///
/// Unit identifiers are strings (zip codes, county FIPS, ...); the
/// pipeline handles name→index resolution, runs the interpolator, and
/// emits a joined table keyed by target unit.
class CrosswalkPipeline {
 public:
  /// `references` carry the crosswalk knowledge (aggregates + DMs in
  /// the index order of the unit name lists). `method` defaults to
  /// GeoAlign with default options when null. Duplicate names within
  /// either unit list are rejected (they would silently shadow earlier
  /// indices during column resolution).
  ///
  /// Create is the COMPILE step of the serving path: it hoists the
  /// name→index maps and, when `method` is GeoAlign, compiles the
  /// shared CrosswalkPlan once; Realign/RealignMany then only execute.
  /// A plan compilation error (e.g. a reference GeoAlign cannot
  /// normalize) fails Create. Other methods keep the references and
  /// run per call.
  static Result<CrosswalkPipeline> Create(
      std::vector<std::string> source_units,
      std::vector<std::string> target_units,
      std::vector<ReferenceAttribute> references,
      std::shared_ptr<const Interpolator> method = nullptr);

  /// Zero-copy Create: reference aggregate columns and CSR arrays stay
  /// borrowed caller memory through plan compilation (attach keepalives
  /// to the views to tie lifetime to the pipeline). Requires a GeoAlign
  /// method (default when null): views have no per-call path. Compile
  /// errors fail Create, as in the owning Create.
  static Result<CrosswalkPipeline> Create(
      std::vector<std::string> source_units,
      std::vector<std::string> target_units,
      std::vector<ReferenceAttributeView> references,
      std::shared_ptr<const Interpolator> method = nullptr);

  /// Realigns a (unit name, value) column from source to target units.
  /// Unknown unit names error; source units absent from the column get
  /// value 0. Returns estimates in target-unit index order.
  Result<CrosswalkResult> Realign(
      const std::vector<std::pair<std::string, double>>& objective) const;

  /// A (unit name, value) objective column, as accepted by Realign.
  using Column = std::vector<std::pair<std::string, double>>;

  /// Realigns many independent objective columns concurrently — the
  /// portal shape of the paper's §6: every column of a table realigned
  /// at once. `threads`: 0 = one per hardware thread, 1 = sequential
  /// (no pool is started). Results are index-aligned with `objectives`
  /// and bit-identical to looping over Realign for every thread count;
  /// on error the lowest-index failing column's status is returned.
  ///
  /// `output` selects the result shape: ExecuteOutput::kAggregatesOnly
  /// drops the DM (results carry an empty estimated_dm;
  /// target_estimates, weights, and zero_rows are bit-identical to
  /// kFullDm). With a compiled plan, the columns are served by
  /// CrosswalkPlan::ExecuteMany, which decides grouping, pool use and
  /// workspaces; each column is name-resolved inside its group's task.
  Result<std::vector<CrosswalkResult>> RealignMany(
      const std::vector<Column>& objectives, size_t threads = 0,
      ExecuteOutput output = ExecuteOutput::kFullDm) const;

  /// One row of the joined output.
  struct JoinedRow {
    std::string target_unit;
    double objective_estimate;
    double target_value;
  };

  /// Realigns `objective` and joins with `target_attribute` (a column
  /// keyed by target unit name); target units absent from the column
  /// get value 0.
  Result<std::vector<JoinedRow>> Join(
      const std::vector<std::pair<std::string, double>>& objective,
      const std::vector<std::pair<std::string, double>>& target_attribute)
      const;

  const std::vector<std::string>& source_units() const {
    return source_units_;
  }
  const std::vector<std::string>& target_units() const {
    return target_units_;
  }
  const Interpolator& method() const { return *method_; }

  /// The compiled plan shared by Realign/RealignMany, or null when the
  /// method is not GeoAlign.
  const CrosswalkPlan* plan() const { return plan_.get(); }

 private:
  CrosswalkPipeline(std::vector<std::string> source_units,
                    std::vector<std::string> target_units,
                    std::shared_ptr<const Interpolator> method);

  /// The head both Create overloads share: defaults `method` to
  /// GeoAlign and builds the unit indices.
  static Result<CrosswalkPipeline> WithUnits(
      std::vector<std::string> source_units,
      std::vector<std::string> target_units,
      std::shared_ptr<const Interpolator> method);

  /// Sums a (unit name, value) column into unit-index order over
  /// `units` (whose name→index map is `index`); unknown names are
  /// NotFound.
  static Result<linalg::Vector> ResolveColumn(
      const std::vector<std::pair<std::string, double>>& column,
      const std::vector<std::string>& units,
      const std::unordered_map<std::string, size_t>& index);

  std::vector<std::string> source_units_;
  std::vector<std::string> target_units_;
  /// Hoisted name→index maps; built (and checked for duplicates) once
  /// in Create instead of once per Realign call.
  std::unordered_map<std::string, size_t> source_index_;
  std::unordered_map<std::string, size_t> target_index_;
  /// Reference attributes, kept only for interpolators that take the
  /// per-call CrosswalkInput path; empty when `plan_` is set.
  std::vector<ReferenceAttribute> references_;
  std::shared_ptr<const Interpolator> method_;
  std::shared_ptr<const CrosswalkPlan> plan_;
};

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_PIPELINE_H_
