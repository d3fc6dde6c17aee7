// Tests for many-objective batches over one compiled plan
// (CrosswalkPlan::ExecuteMany) and the geometric-path universe,
// including the batch-vs-individual equivalence guarantee and the
// agreement between the geometric and crosswalk-file pipelines.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/thread_pool.h"
#include "core/areal_weighting.h"
#include "core/geoalign.h"
#include "eval/metrics.h"
#include "linalg/simplex_ls.h"
#include "synth/geometric_universe.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

const synth::Universe& SmallUniverse() {
  static synth::Universe* uni = [] {
    synth::UniverseOptions opts;
    opts.scale = 0.08;
    opts.seed = 555;
    opts.suite = synth::SuiteKind::kUnitedStates;
    return new synth::Universe(std::move(
        synth::BuildUniverse(synth::UniverseId::kNewYork, opts)).ValueOrDie());
  }();
  return *uni;
}

// Realigns `objectives` over one plan through ExecuteMany (aggregates
// only), on a pool sized like GeoAlignOptions{}.threads = 0.
Result<std::vector<core::CrosswalkResult>> RunBatch(
    const core::CrosswalkPlan& plan,
    const std::vector<linalg::Vector>& objectives) {
  std::unique_ptr<common::ThreadPool> pool =
      common::MakePoolOrNull(common::ResolveThreadCount(0));
  return plan.ExecuteMany(
      objectives.size(),
      [&](size_t i, linalg::Vector*) -> Result<common::ColumnView> {
        return common::ColumnView(objectives[i]);
      },
      pool.get(), core::ExecuteOutput::kAggregatesOnly);
}

TEST(SimplexLsNormalEquations, MatchesDirectForm) {
  Rng rng(77);
  linalg::Matrix a(40, 5);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 5; ++j) a(i, j) = rng.Uniform(0.0, 1.0);
  }
  linalg::Vector b(40);
  for (double& v : b) v = rng.Uniform(0.0, 1.0);
  auto direct = std::move(linalg::SolveSimplexLeastSquares(a, b)).ValueOrDie();
  auto normal = std::move(linalg::SolveSimplexLsFromNormalEquations(
      a.Gram(), a.MatTVec(b), linalg::Dot(b, b))).ValueOrDie();
  EXPECT_TRUE(linalg::AllClose(direct.beta, normal.beta, 1e-10));
  EXPECT_NEAR(direct.residual_norm, normal.residual_norm, 1e-8);
}

TEST(SimplexLsNormalEquations, ValidatesShapes) {
  linalg::Matrix gram(2, 3);
  EXPECT_FALSE(
      linalg::SolveSimplexLsFromNormalEquations(gram, {1.0, 2.0}, 1.0).ok());
  linalg::Matrix ok_gram = linalg::Matrix::Identity(2);
  EXPECT_FALSE(
      linalg::SolveSimplexLsFromNormalEquations(ok_gram, {1.0}, 1.0).ok());
}

TEST(ExecuteManyBatch, MatchesIndividualGeoAlign) {
  const synth::Universe& uni = SmallUniverse();
  // References: all datasets except the first two; objectives: those
  // two, crosswalked both individually and as a batch.
  std::vector<core::ReferenceAttribute> refs;
  for (size_t k = 2; k < uni.datasets.size(); ++k) {
    core::ReferenceAttribute ref;
    ref.name = uni.datasets[k].name;
    ref.source_aggregates = uni.datasets[k].source;
    ref.disaggregation = uni.datasets[k].dm;
    refs.push_back(std::move(ref));
  }
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            refs, core::GeoAlignOptions{}))
                  .ValueOrDie();
  EXPECT_EQ(plan.num_source_units(), uni.NumZips());
  EXPECT_EQ(plan.num_target_units(), uni.NumCounties());

  std::vector<linalg::Vector> objectives;
  for (size_t t = 0; t < 2; ++t) objectives.push_back(uni.datasets[t].source);
  auto results = std::move(RunBatch(plan, objectives)).ValueOrDie();
  ASSERT_EQ(results.size(), 2u);

  core::GeoAlign geoalign;
  for (size_t t = 0; t < 2; ++t) {
    core::CrosswalkInput input;
    input.objective_source = uni.datasets[t].source;
    input.references = refs;
    auto individual = std::move(geoalign.Crosswalk(input)).ValueOrDie();
    EXPECT_TRUE(linalg::AllClose(results[t].target_estimates,
                                 individual.target_estimates, 1e-9))
        << uni.datasets[t].name;
    EXPECT_TRUE(
        linalg::AllClose(results[t].weights, individual.weights, 1e-9));
    EXPECT_EQ(results[t].zero_rows, individual.zero_rows);
  }
}

TEST(ExecuteManyBatch, ValidatesInput) {
  EXPECT_FALSE(core::CrosswalkPlan::Compile(
                   std::vector<core::ReferenceAttribute>{},
                   core::GeoAlignOptions{})
                   .ok());
  const synth::Universe& uni = SmallUniverse();
  std::vector<core::ReferenceAttribute> refs;
  core::ReferenceAttribute ref;
  ref.name = uni.datasets[2].name;
  ref.source_aggregates = uni.datasets[2].source;
  ref.disaggregation = uni.datasets[2].dm;
  refs.push_back(std::move(ref));
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            refs, core::GeoAlignOptions{}))
                  .ValueOrDie();
  // Wrong objective length.
  auto bad = RunBatch(plan, {linalg::Vector{1.0, 2.0}});
  EXPECT_FALSE(bad.ok());
  // Non-simplex solvers are supported since the compiled-plan rewrite
  // (the plan simply skips the Gram hoist); results must match the
  // individual path.
  core::GeoAlignOptions opts;
  opts.solver = core::WeightSolver::kUniform;
  core::ReferenceAttribute ref2;
  ref2.name = uni.datasets[2].name;
  ref2.source_aggregates = uni.datasets[2].source;
  ref2.disaggregation = uni.datasets[2].dm;
  auto uniform_plan =
      std::move(core::CrosswalkPlan::Compile(
                    std::vector<core::ReferenceAttribute>{ref2}, opts))
          .ValueOrDie();
  auto uniform_results =
      std::move(RunBatch(uniform_plan, {uni.datasets[3].source}))
          .ValueOrDie();
  ASSERT_EQ(uniform_results.size(), 1u);
  core::CrosswalkInput uniform_input;
  uniform_input.objective_source = uni.datasets[3].source;
  uniform_input.references = {ref2};
  auto uniform_individual =
      std::move(core::GeoAlign(opts).Crosswalk(uniform_input)).ValueOrDie();
  EXPECT_EQ(uniform_results[0].target_estimates,
            uniform_individual.target_estimates);
  EXPECT_EQ(uniform_results[0].weights, uniform_individual.weights);
}

const synth::GeometricUniverse& SmallGeometric() {
  static synth::GeometricUniverse* uni = [] {
    synth::GeometricUniverseOptions opts;
    opts.num_zips = 150;
    opts.num_counties = 12;
    opts.population_points = 30000;
    opts.seed = 99;
    return new synth::GeometricUniverse(
        std::move(synth::BuildGeometricUniverse(opts)).ValueOrDie());
  }();
  return *uni;
}

TEST(GeometricUniverse, StructureIsConsistent) {
  const synth::GeometricUniverse& uni = SmallGeometric();
  EXPECT_GT(uni.NumZips(), 100u);
  EXPECT_GE(uni.NumCounties(), 10u);
  // The geometric overlay covers the world.
  EXPECT_NEAR(uni.overlay.TotalMeasure(), 100.0 * 100.0, 1.0);
  // Every dataset's DM marginals are its aggregate vectors.
  for (const synth::Dataset& d : uni.datasets) {
    EXPECT_TRUE(linalg::AllClose(d.dm.RowSums(), d.source, 1e-6)) << d.name;
    EXPECT_TRUE(linalg::AllClose(d.dm.ColSums(), d.target, 1e-6)) << d.name;
  }
  // Leave-one-out inputs validate.
  for (size_t t = 0; t < uni.datasets.size(); ++t) {
    auto input = std::move(uni.MakeLeaveOneOutInput(t)).ValueOrDie();
    EXPECT_TRUE(input.Validate().ok()) << uni.datasets[t].name;
  }
  EXPECT_FALSE(uni.MakeLeaveOneOutInput(999).ok());
}

TEST(GeometricUniverse, GeoAlignBeatsArealWeightingOnPointData) {
  const synth::GeometricUniverse& uni = SmallGeometric();
  core::GeoAlign geoalign;
  core::ArealWeighting areal(uni.measure_dm);
  double ga_total = 0.0;
  double aw_total = 0.0;
  int n = 0;
  for (size_t t = 0; t < uni.datasets.size(); ++t) {
    if (uni.datasets[t].name == "Area (Sq. Miles)") continue;
    auto input = std::move(uni.MakeLeaveOneOutInput(t)).ValueOrDie();
    auto ga = std::move(geoalign.Crosswalk(input)).ValueOrDie();
    auto aw = std::move(areal.Crosswalk(input)).ValueOrDie();
    ga_total += eval::Nrmse(ga.target_estimates, uni.datasets[t].target);
    aw_total += eval::Nrmse(aw.target_estimates, uni.datasets[t].target);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(ga_total / n, aw_total / n);
}

TEST(GeometricUniverse, ValidatesOptions) {
  synth::GeometricUniverseOptions bad;
  bad.num_counties = 500;
  bad.num_zips = 100;
  EXPECT_FALSE(synth::BuildGeometricUniverse(bad).ok());
}

TEST(GeometricUniverse, DeterministicGivenSeed) {
  synth::GeometricUniverseOptions opts;
  opts.num_zips = 40;
  opts.num_counties = 5;
  opts.population_points = 5000;
  opts.seed = 31;
  auto a = std::move(synth::BuildGeometricUniverse(opts)).ValueOrDie();
  auto b = std::move(synth::BuildGeometricUniverse(opts)).ValueOrDie();
  ASSERT_EQ(a.datasets.size(), b.datasets.size());
  for (size_t d = 0; d < a.datasets.size(); ++d) {
    EXPECT_EQ(a.datasets[d].source, b.datasets[d].source);
  }
}

}  // namespace
}  // namespace geoalign
