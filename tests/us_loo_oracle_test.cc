// US-scale oracle for the union execute structure. None of the ten
// leave-one-out inputs of the paper's United States suite (§4.3,
// universe seed 2018, full scale) has references that share one DM
// pattern, so every plan here scatters its references onto the union
// of their patterns and runs the structure-sharing kernels. Every
// output must still carry exactly the bits of the per-call oracle
// CrosswalkUncompiled over the caller's own DMs: the full DM̂_o and
// aggregates (kFullDm), aggregates only, and a many-column
// ExecuteMany through the panel lane.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/geoalign.h"
#include "oracles/crosswalk_uncompiled.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

// The perfbench US suite: universe seed 2018 at full scale.
const synth::Universe& UsUniverse() {
  static const synth::Universe universe = [] {
    synth::UniverseOptions options;
    options.seed = 2018;
    options.scale = 1.0;
    return std::move(synth::BuildUniverse(synth::UniverseId::kUnitedStates,
                                          options))
        .ValueOrDie();
  }();
  return universe;
}

// Two objective columns per input: the held-out target and a
// deterministic perturbation of it (one two-lane panel).
std::vector<linalg::Vector> Columns(const linalg::Vector& objective) {
  linalg::Vector wobbled = objective;
  for (size_t i = 0; i < wobbled.size(); ++i) {
    wobbled[i] *= 1.0 + 0.1 * std::sin(static_cast<double>(i * 31 + 7));
  }
  return {objective, std::move(wobbled)};
}

void ExpectSameAggregates(const core::CrosswalkResult& got,
                          const core::CrosswalkResult& want) {
  ASSERT_EQ(got.target_estimates, want.target_estimates);
  ASSERT_EQ(got.weights, want.weights);
  ASSERT_EQ(got.zero_rows, want.zero_rows);
}

void CheckAllTargets(const core::GeoAlignOptions& options) {
  const synth::Universe& universe = UsUniverse();
  ASSERT_EQ(universe.datasets.size(), 10u);
  for (size_t t = 0; t < universe.datasets.size(); ++t) {
    SCOPED_TRACE(StrFormat("target %zu", t));
    core::CrosswalkInput input =
        std::move(universe.MakeLeaveOneOutInput(t)).ValueOrDie();
    ASSERT_FALSE(sparse::SharesOneStructure(input.references));
    auto plan =
        std::move(core::CrosswalkPlan::Compile(input, options)).ValueOrDie();

    const std::vector<linalg::Vector> columns =
        Columns(input.objective_source);
    std::vector<core::CrosswalkResult> legacy;
    for (const linalg::Vector& column : columns) {
      input.objective_source = column;
      legacy.push_back(
          std::move(core::CrosswalkUncompiled(input, options)).ValueOrDie());
    }

    auto full = std::move(plan.Execute(columns[0])).ValueOrDie();
    ExpectSameAggregates(full, legacy[0]);
    ASSERT_EQ(full.estimated_dm.row_ptr(), legacy[0].estimated_dm.row_ptr());
    ASSERT_EQ(full.estimated_dm.col_idx(), legacy[0].estimated_dm.col_idx());
    ASSERT_EQ(full.estimated_dm.values(), legacy[0].estimated_dm.values());

    auto aggregates = std::move(plan.Execute(
                                    columns[0],
                                    core::ExecuteOutput::kAggregatesOnly))
                          .ValueOrDie();
    ExpectSameAggregates(aggregates, legacy[0]);
    ASSERT_EQ(aggregates.estimated_dm.nnz(), 0u);

    auto column_source = [&](size_t i, linalg::Vector*)
        -> Result<common::ColumnView> {
      return common::ColumnView(columns[i]);
    };
    auto many =
        std::move(plan.ExecuteMany(columns.size(), column_source, nullptr,
                                   core::ExecuteOutput::kAggregatesOnly))
            .ValueOrDie();
    ASSERT_EQ(many.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      SCOPED_TRACE(StrFormat("column %zu", i));
      ExpectSameAggregates(many[i], legacy[i]);
    }
  }
}

TEST(UsLooOracleTest, DefaultOptionsBitIdentical) {
  CheckAllTargets(core::GeoAlignOptions{});
}

TEST(UsLooOracleTest, DenominatorsFromAggregatesBitIdentical) {
  // The default denominator is kFromDmRowSums; this covers the other.
  core::GeoAlignOptions options;
  options.denominator = core::DenominatorMode::kFromAggregates;
  CheckAllTargets(options);
}

TEST(UsLooOracleTest, RawScaleBitIdentical) {
  core::GeoAlignOptions options;
  options.scale_mode = core::ScaleMode::kRaw;
  CheckAllTargets(options);
}

}  // namespace
}  // namespace geoalign
