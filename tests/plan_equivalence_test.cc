// Bit-identity contract of the compile/execute split: for every
// {ScaleMode, WeightSolver, DenominatorMode, ZeroRowFallback} × threads
// combination, `CrosswalkPlan::Compile → Execute` and the thin
// `GeoAlign::Crosswalk` wrapper must produce exactly the bits of the
// preserved legacy oracle `CrosswalkUncompiled` (tests/oracles/) — no
// tolerances. The sweep is a four-way oracle: the fused aggregates-only lane
// (ExecuteOutput::kAggregatesOnly through a reused ExecuteWorkspace)
// and the SIMD column-panel lane (ExecutePanelWith, every lane of a
// replicated panel) must carry the same bits while never materializing
// DM̂_o. Also covers plan reuse/immutability, forced-ISA independence
// of a plan's fingerprint and bits, the pipeline serving path, and
// many-column batches through ExecuteMany.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/geoalign.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "oracles/crosswalk_uncompiled.h"
#include "sparse/coo_builder.h"
#include "sparse/simd/panel_kernels.h"
#include "synth/universe.h"

namespace geoalign {
namespace {

synth::Universe MakeWorldUniverse() {
  synth::UniverseOptions opts;
  opts.seed = 555;
  opts.scale = 0.08;
  opts.suite = synth::SuiteKind::kUnitedStates;
  return std::move(synth::BuildUniverse(synth::UniverseId::kNewYork, opts))
      .ValueOrDie();
}

core::CrosswalkInput MakeWorldInput() {
  synth::Universe universe = MakeWorldUniverse();
  return std::move(universe.MakeLeaveOneOutInput(0)).ValueOrDie();
}

// The world input restricted to its dense layers. Poisson layers drop
// zero cells, so their DMs have private structures; the dense layers
// cover every overlay cell and therefore share one CSR structure —
// the regime where Prepare keeps the DMs as they are instead of
// scattering them onto a union structure (FusedLaneRunsOnAlignedWorld
// guards both premises).
core::CrosswalkInput MakeAlignedDenseInput() {
  core::CrosswalkInput input = MakeWorldInput();
  std::vector<core::ReferenceAttribute> dense;
  for (core::ReferenceAttribute& ref : input.references) {
    if (ref.name == "Area (Sq. Miles)" || ref.name == "Population" ||
        ref.name == "USPS Business Address" ||
        ref.name == "USPS Residential Address") {
      dense.push_back(std::move(ref));
    }
  }
  input.references = std::move(dense);
  return input;
}

// A consistent fallback DM for the world input (uniform support on
// every target, rows summing to the objective so Validate-style
// consistency is irrelevant — only support matters).
sparse::CsrMatrix MakeDenseFallback(size_t rows, size_t cols) {
  sparse::CooBuilder builder(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      builder.Add(r, c, 1.0 + static_cast<double>((r * 7 + c * 3) % 5));
    }
  }
  return builder.Build();
}

void ExpectBitIdentical(const core::CrosswalkResult& got,
                        const core::CrosswalkResult& want) {
  ASSERT_EQ(got.target_estimates, want.target_estimates);
  ASSERT_EQ(got.weights, want.weights);
  ASSERT_EQ(got.zero_rows, want.zero_rows);
  ASSERT_EQ(got.estimated_dm.row_ptr(), want.estimated_dm.row_ptr());
  ASSERT_EQ(got.estimated_dm.col_idx(), want.estimated_dm.col_idx());
  ASSERT_EQ(got.estimated_dm.values(), want.estimated_dm.values());
}

// Aggregates-only executes must carry exactly the oracle's bits for
// everything they produce — and no DM̂_o at all.
void ExpectAggregatesOnly(const core::CrosswalkResult& got,
                          const core::CrosswalkResult& want) {
  ASSERT_EQ(got.target_estimates, want.target_estimates);
  ASSERT_EQ(got.weights, want.weights);
  ASSERT_EQ(got.zero_rows, want.zero_rows);
  ASSERT_EQ(got.estimated_dm.rows(), 0u);
  ASSERT_EQ(got.estimated_dm.values().size(), 0u);
}

// Serves `objectives` through one CrosswalkPlan::ExecuteMany call
// (aggregates only) on a `threads`-worker pool — the many-column
// batch surface.
Result<std::vector<core::CrosswalkResult>> ExecuteBatch(
    const core::CrosswalkPlan& plan,
    const std::vector<linalg::Vector>& objectives, size_t threads) {
  std::unique_ptr<common::ThreadPool> pool = common::MakePoolOrNull(threads);
  return plan.ExecuteMany(
      objectives.size(),
      [&](size_t i, linalg::Vector*) -> Result<common::ColumnView> {
        return common::ColumnView(objectives[i]);
      },
      pool.get(), core::ExecuteOutput::kAggregatesOnly);
}

// Runs the full option sweep on `input`, comparing the legacy oracle,
// the Crosswalk wrapper, and an explicitly compiled plan bit-for-bit.
void SweepAllOptions(const core::CrosswalkInput& input,
                     const sparse::CsrMatrix& fallback) {
  for (core::ScaleMode scale :
       {core::ScaleMode::kNormalized, core::ScaleMode::kRaw}) {
    for (core::WeightSolver solver :
         {core::WeightSolver::kSimplex, core::WeightSolver::kNnlsNormalized,
          core::WeightSolver::kClampedLs, core::WeightSolver::kUniform}) {
      for (core::DenominatorMode den :
           {core::DenominatorMode::kFromDmRowSums,
            core::DenominatorMode::kFromAggregates}) {
        for (core::ZeroRowFallback fb :
             {core::ZeroRowFallback::kZero,
              core::ZeroRowFallback::kFallbackDm}) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(StrFormat("scale=%d solver=%d den=%d fb=%d thr=%zu",
                                   static_cast<int>(scale),
                                   static_cast<int>(solver),
                                   static_cast<int>(den),
                                   static_cast<int>(fb), threads));
            core::GeoAlignOptions opts;
            opts.scale_mode = scale;
            opts.solver = solver;
            opts.denominator = den;
            opts.zero_row_fallback = fb;
            if (fb == core::ZeroRowFallback::kFallbackDm) {
              opts.fallback_dm = &fallback;
            }
            opts.threads = threads;

            auto legacy =
                std::move(core::CrosswalkUncompiled(input, opts)).ValueOrDie();
            core::GeoAlign geoalign(opts);
            auto wrapped = std::move(geoalign.Crosswalk(input)).ValueOrDie();
            ExpectBitIdentical(wrapped, legacy);

            auto plan = std::move(geoalign.Compile(input)).ValueOrDie();
            auto executed =
                std::move(plan.Execute(input.objective_source)).ValueOrDie();
            ExpectBitIdentical(executed, legacy);

            // Third oracle leg: the fused aggregates-only lane, twice
            // through one reused workspace so the steady-state
            // (zero-growth) path is on the hook too. On non-aligned
            // reference sets this exercises the materializing
            // fallback with the DM dropped — same contract.
            std::unique_ptr<common::ThreadPool> pool =
                common::MakePoolOrNull(common::ResolveThreadCount(threads));
            core::ExecuteWorkspace workspace;
            workspace.Prepare(plan.workspace_spec(),
                              pool != nullptr ? pool->size() + 1 : 1);
            for (int rep = 0; rep < 2; ++rep) {
              auto fused = std::move(plan.ExecuteWith(
                               input.objective_source, pool.get(),
                               core::ExecuteOutput::kAggregatesOnly,
                               &workspace))
                               .ValueOrDie();
              ExpectAggregatesOnly(fused, legacy);
            }

            // Fourth oracle leg: the SIMD column-panel lane. The
            // objective replicated across 3 lanes must hand every lane
            // exactly the single-column bits — panel blocking and lane
            // ganging are throughput choices, never numeric ones. (On
            // non-aligned reference sets ExecutePanelWith degrades to
            // the per-column lane; the contract is the same.)
            {
              const common::ColumnView objs[3] = {input.objective_source,
                                                  input.objective_source,
                                                  input.objective_source};
              std::optional<Result<core::CrosswalkResult>> slots[3];
              std::optional<Result<core::CrosswalkResult>>* slot_ptrs[3] = {
                  &slots[0], &slots[1], &slots[2]};
              plan.ExecutePanelWith(objs, slot_ptrs, 3, &workspace);
              for (auto& slot : slots) {
                ASSERT_TRUE(slot.has_value());
                auto paneled = std::move(*slot).ValueOrDie();
                ExpectAggregatesOnly(paneled, legacy);
              }
            }
          }
        }
      }
    }
  }
}

TEST(PlanEquivalenceTest, AllOptionCombosBitIdentical) {
  core::CrosswalkInput input = MakeWorldInput();
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

TEST(PlanEquivalenceTest, NoisyAggregatesBitIdentical) {
  // Inconsistent inputs (reported aggregates ≠ DM row sums) are the
  // §4.4.1 robustness regime; kFromAggregates vs kFromDmRowSums only
  // diverge here, so the sweep must stay bit-identical on such inputs
  // too.
  core::CrosswalkInput input = MakeWorldInput();
  for (size_t k = 0; k < input.references.size(); ++k) {
    linalg::Vector& agg = input.references[k].source_aggregates;
    for (size_t i = 0; i < agg.size(); ++i) {
      agg[i] *= 1.0 + 0.25 * std::sin(static_cast<double>(i * 13 + k * 7));
    }
  }
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

// Hand-built 3-source × 4-target world where source row 1 has no
// reference support but carries objective mass.
struct ZeroRowWorld {
  core::CrosswalkInput input;
  sparse::CsrMatrix fallback;
};

ZeroRowWorld MakeZeroRowWorld() {
  ZeroRowWorld w;
  w.input.objective_source = {5.0, 7.0, 9.0};

  core::ReferenceAttribute a;
  a.name = "A";
  a.source_aggregates = {2.0, 0.0, 4.0};
  sparse::CooBuilder ba(3, 4);
  ba.Add(0, 0, 1.0);
  ba.Add(0, 1, 1.0);
  ba.Add(2, 0, 2.0);
  ba.Add(2, 2, 2.0);
  a.disaggregation = ba.Build();

  core::ReferenceAttribute b;
  b.name = "B";
  b.source_aggregates = {1.0, 0.0, 3.0};
  sparse::CooBuilder bb(3, 4);
  bb.Add(0, 1, 1.0);
  bb.Add(2, 2, 1.0);
  bb.Add(2, 3, 2.0);
  b.disaggregation = bb.Build();

  w.input.references = {std::move(a), std::move(b)};

  sparse::CooBuilder bf(3, 4);
  bf.Add(0, 0, 5.0);
  bf.Add(1, 1, 3.0);
  bf.Add(1, 3, 4.0);
  bf.Add(2, 2, 9.0);
  w.fallback = bf.Build();
  return w;
}

TEST(PlanEquivalenceTest, ZeroRowWorldBitIdentical) {
  ZeroRowWorld w = MakeZeroRowWorld();
  SweepAllOptions(w.input, w.fallback);

  // Semantics spot-checks on top of bit-identity: kZero loses row 1's
  // mass, kFallbackDm distributes it by the fallback row.
  core::GeoAlignOptions opts;
  auto zero = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  ASSERT_EQ(zero.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(zero.target_estimates), 5.0 + 9.0);

  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  opts.fallback_dm = &w.fallback;
  auto fb = std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  ASSERT_EQ(fb.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(fb.target_estimates), 5.0 + 7.0 + 9.0);
  EXPECT_DOUBLE_EQ(fb.estimated_dm.At(1, 1), 7.0 * 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(fb.estimated_dm.At(1, 3), 7.0 * 4.0 / 7.0);

  // A zero objective entry on a supported row: kZero keeps that row's
  // entries in DM̂_o as explicit zeros, the kFallbackDm rebuild drops
  // them — every path must agree on both.
  w.input.objective_source[2] = 0.0;
  SweepAllOptions(w.input, w.fallback);
  auto count_zeros = [](const sparse::CsrMatrix& m) {
    size_t n = 0;
    for (double v : m.values()) n += v == 0.0 ? 1 : 0;
    return n;
  };
  auto kept = std::move(core::GeoAlign(core::GeoAlignOptions{})
                            .Crosswalk(w.input))
                  .ValueOrDie();
  EXPECT_GT(count_zeros(kept.estimated_dm), 0u);
  auto rebuilt =
      std::move(core::GeoAlign(opts).Crosswalk(w.input)).ValueOrDie();
  EXPECT_EQ(count_zeros(rebuilt.estimated_dm), 0u);
}

// Like MakeZeroRowWorld, but both references share one CSR structure
// (identical coordinates, different values) so the compiled plan is
// aligned and kAggregatesOnly goes through the fused kernel — with
// source row 1 empty in both references (a zero-denominator row under
// both DenominatorModes: no DM support and zero aggregates).
ZeroRowWorld MakeAlignedZeroRowWorld() {
  ZeroRowWorld w;
  w.input.objective_source = {5.0, 7.0, 9.0};

  core::ReferenceAttribute a;
  a.name = "A";
  a.source_aggregates = {2.0, 0.0, 4.0};
  sparse::CooBuilder ba(3, 4);
  ba.Add(0, 0, 1.0);
  ba.Add(0, 1, 1.0);
  ba.Add(2, 0, 2.0);
  ba.Add(2, 2, 2.0);
  a.disaggregation = ba.Build();

  core::ReferenceAttribute b;
  b.name = "B";
  b.source_aggregates = {1.0, 0.0, 3.0};
  sparse::CooBuilder bb(3, 4);
  bb.Add(0, 0, 0.25);
  bb.Add(0, 1, 0.75);
  bb.Add(2, 0, 1.0);
  bb.Add(2, 2, 2.0);
  b.disaggregation = bb.Build();

  w.input.references = {std::move(a), std::move(b)};

  sparse::CooBuilder bf(3, 4);
  bf.Add(0, 0, 5.0);
  bf.Add(1, 1, 3.0);
  bf.Add(1, 3, 4.0);
  bf.Add(2, 2, 9.0);
  w.fallback = bf.Build();
  return w;
}

TEST(PlanEquivalenceTest, FusedLaneRunsOnAlignedWorld) {
  // Guards the test premises: the dense world and the hand-built
  // zero-row world already share one structure. The full world's
  // Poisson layers do not, so Prepare scatters every DM onto the union
  // of their patterns: each plan then runs on one shared structure
  // (fused and panel lanes), whose cells are exactly the distinct
  // (row, col) pairs of the inputs.
  core::CrosswalkInput dense = MakeAlignedDenseInput();
  ASSERT_EQ(dense.references.size(), 4u);
  auto dense_plan =
      std::move(core::CrosswalkPlan::Compile(dense, core::GeoAlignOptions{}))
          .ValueOrDie();
  EXPECT_TRUE(dense_plan.references().aligned());

  ZeroRowWorld w = MakeAlignedZeroRowWorld();
  auto zero_plan = std::move(core::CrosswalkPlan::Compile(
                                 w.input, core::GeoAlignOptions{}))
                       .ValueOrDie();
  EXPECT_TRUE(zero_plan.references().aligned());

  core::CrosswalkInput world = MakeWorldInput();
  EXPECT_FALSE(sparse::SharesOneStructure(world.references))
      << "the Poisson layers should have private DM structures";
  auto world_plan =
      std::move(core::CrosswalkPlan::Compile(world, core::GeoAlignOptions{}))
          .ValueOrDie();
  EXPECT_TRUE(world_plan.references().aligned());
  const std::vector<const sparse::CsrMatrix*>& dms =
      world_plan.references().dms();
  for (const sparse::CsrMatrix* dm : dms) {
    EXPECT_EQ(dm->row_ptr().data(), dms[0]->row_ptr().data());
    EXPECT_EQ(dm->col_idx().data(), dms[0]->col_idx().data());
  }
  std::set<std::pair<size_t, size_t>> cells;
  for (const core::ReferenceAttribute& ref : world.references) {
    for (size_t r = 0; r < ref.disaggregation.rows(); ++r) {
      sparse::CsrMatrix::RowView row = ref.disaggregation.Row(r);
      for (size_t k = 0; k < row.size; ++k) cells.emplace(r, row.cols[k]);
    }
  }
  EXPECT_EQ(dms[0]->nnz(), cells.size());
}

TEST(PlanEquivalenceTest, WorldFingerprintIsPinned) {
  // The fingerprint hashes the caller's arrays before any union
  // scatter, so the value read by audit records and
  // geoalign_plan_fingerprint did not move when the union structure
  // arrived. The literal was computed before the union existed.
  auto plan = std::move(core::CrosswalkPlan::Compile(MakeWorldInput(),
                                                     core::GeoAlignOptions{}))
                  .ValueOrDie();
  EXPECT_EQ(plan.fingerprint(), 0xc9ba00db8abf126eull);
}

TEST(PlanEquivalenceTest, UnionScatteredReferencesKeepBitsNotFingerprint) {
  // Handing the plan's union-scattered DMs (explicit +0.0 fillers
  // included) back in as input is a different reference set byte-wise,
  // so it fingerprints differently — and every path still produces the
  // original input's bits, DM̂_o structure included.
  core::CrosswalkInput world = MakeWorldInput();
  auto plan =
      std::move(core::CrosswalkPlan::Compile(world, core::GeoAlignOptions{}))
          .ValueOrDie();
  core::CrosswalkInput scattered;
  scattered.objective_source = world.objective_source;
  size_t world_nnz = 0, scattered_nnz = 0;
  for (size_t k = 0; k < world.references.size(); ++k) {
    core::ReferenceAttribute ref;
    ref.name = world.references[k].name;
    ref.source_aggregates = world.references[k].source_aggregates;
    ref.disaggregation = plan.references().reference(k).disaggregation;
    world_nnz += world.references[k].disaggregation.nnz();
    scattered_nnz += ref.disaggregation.nnz();
    scattered.references.push_back(std::move(ref));
  }
  ASSERT_GT(scattered_nnz, world_nnz) << "no explicit fillers to test";

  for (core::ScaleMode scale :
       {core::ScaleMode::kNormalized, core::ScaleMode::kRaw}) {
    for (core::DenominatorMode den : {core::DenominatorMode::kFromDmRowSums,
                                      core::DenominatorMode::kFromAggregates}) {
      SCOPED_TRACE(StrFormat("scale=%d den=%d", static_cast<int>(scale),
                             static_cast<int>(den)));
      core::GeoAlignOptions opts;
      opts.scale_mode = scale;
      opts.denominator = den;
      auto legacy =
          std::move(core::CrosswalkUncompiled(world, opts)).ValueOrDie();
      auto direct = std::move(core::CrosswalkPlan::Compile(scattered, opts))
                        .ValueOrDie();
      EXPECT_NE(direct.fingerprint(), plan.fingerprint());
      ExpectBitIdentical(
          std::move(direct.Execute(world.objective_source)).ValueOrDie(),
          legacy);
      ExpectAggregatesOnly(
          std::move(direct.Execute(world.objective_source,
                                   core::ExecuteOutput::kAggregatesOnly))
              .ValueOrDie(),
          legacy);
      ExpectBitIdentical(
          std::move(core::CrosswalkUncompiled(scattered, opts)).ValueOrDie(),
          legacy);
    }
  }
}

TEST(PlanEquivalenceTest, SubnormalMaximumIsRejectedOnEveryPath) {
  // A reference whose largest aggregate is subnormal: 1/max overflows,
  // so β/max would be infinite and turn the +0.0 union fillers into
  // NaN. The plan and the legacy path reject it with the same status
  // (the legacy path used to return NaN weights).
  core::CrosswalkInput input;
  input.objective_source = {1.0, 2.0, 3.0};
  core::ReferenceAttribute a;
  a.name = "A";
  a.source_aggregates = {1.0, 1.0, 1.0};
  sparse::CooBuilder ba(3, 3);
  ba.Add(0, 0, 1.0);
  ba.Add(1, 1, 1.0);
  ba.Add(2, 2, 1.0);
  a.disaggregation = ba.Build();
  core::ReferenceAttribute tiny;
  tiny.name = "tiny";
  tiny.source_aggregates = {1e-320, 0.0, 1e-320};
  sparse::CooBuilder bt(3, 3);
  bt.Add(0, 1, 1e-320);
  bt.Add(2, 1, 1e-320);
  tiny.disaggregation = bt.Build();
  input.references = {a, tiny};

  auto legacy = core::CrosswalkUncompiled(input, core::GeoAlignOptions{});
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kInvalidArgument);
  auto plan = core::CrosswalkPlan::Compile(input, core::GeoAlignOptions{});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), legacy.status().code());
  EXPECT_EQ(plan.status().message(), legacy.status().message());

  // The same rule covers the objective column.
  input.references = {a};
  input.objective_source = {1e-320, 0.0, 0.0};
  auto legacy_obj = core::CrosswalkUncompiled(input, core::GeoAlignOptions{});
  ASSERT_FALSE(legacy_obj.ok());
  auto single = std::move(core::CrosswalkPlan::Compile(
                              input, core::GeoAlignOptions{}))
                    .ValueOrDie();
  auto executed = single.Execute(input.objective_source);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().message(), legacy_obj.status().message());
}

TEST(PlanEquivalenceTest, AlignedDenseWorldBitIdentical) {
  core::CrosswalkInput input = MakeAlignedDenseInput();
  sparse::CsrMatrix fallback = MakeDenseFallback(
      input.NumSourceUnits(), input.NumTargetUnits());
  SweepAllOptions(input, fallback);
}

TEST(PlanEquivalenceTest, AlignedZeroRowWorldBitIdentical) {
  // The fused kernel's zero-row and fallback-scatter paths, against
  // the same legacy oracle (kFallbackDm iterations of the sweep scatter
  // fallback rows inside the fused pass).
  ZeroRowWorld w = MakeAlignedZeroRowWorld();
  SweepAllOptions(w.input, w.fallback);

  // Semantics spot-check through the fused lane itself.
  core::GeoAlignOptions opts;
  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;
  opts.fallback_dm = &w.fallback;
  auto plan = std::move(core::CrosswalkPlan::Compile(w.input, opts))
                  .ValueOrDie();
  auto fused = std::move(plan.Execute(w.input.objective_source,
                                      core::ExecuteOutput::kAggregatesOnly))
                   .ValueOrDie();
  ASSERT_EQ(fused.zero_rows, (std::vector<size_t>{1}));
  EXPECT_DOUBLE_EQ(linalg::Sum(fused.target_estimates), 5.0 + 7.0 + 9.0);
  EXPECT_EQ(fused.estimated_dm.rows(), 0u);
}

TEST(PlanEquivalenceTest, PreparedWorkspaceServesWithZeroHotPathAllocs) {
  // The steady-state serving promise: once a workspace is Prepared
  // from the plan-compiled spec, repeat executes grow nothing
  // (execute.hot_path_allocs stays flat) and each one counts as a
  // workspace reuse.
  bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  {
    core::CrosswalkInput input = MakeAlignedDenseInput();
    core::GeoAlignOptions opts;
    opts.threads = 1;
    auto plan = std::move(core::CrosswalkPlan::Compile(input, opts))
                    .ValueOrDie();
    ASSERT_TRUE(plan.references().aligned());
    core::ExecuteWorkspace workspace;
    workspace.Prepare(plan.workspace_spec(), /*slots=*/1);

    obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
        "execute.hot_path_allocs");
    obs::Counter& reuse = obs::MetricsRegistry::Global().GetCounter(
        "execute.workspace_reuse");
    uint64_t allocs_before = allocs.Value();
    uint64_t reuse_before = reuse.Value();
    for (int rep = 0; rep < 3; ++rep) {
      auto result = std::move(plan.ExecuteWith(
                        input.objective_source, nullptr,
                        core::ExecuteOutput::kAggregatesOnly, &workspace))
                        .ValueOrDie();
      ASSERT_FALSE(result.target_estimates.empty());
    }
    EXPECT_EQ(allocs.Value(), allocs_before)
        << "a Prepared workspace must serve executes without buffer growth";
    EXPECT_EQ(reuse.Value(), reuse_before + 3);
  }
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, FallbackErrorParity) {
  ZeroRowWorld w = MakeZeroRowWorld();
  core::GeoAlignOptions opts;
  opts.zero_row_fallback = core::ZeroRowFallback::kFallbackDm;

  // Missing fallback DM: both paths reject identically (the plan at
  // Compile time, matching the legacy up-front check).
  {
    auto legacy = core::CrosswalkUncompiled(w.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = core::CrosswalkPlan::Compile(w.input, opts);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().message(), legacy.status().message());
    EXPECT_EQ(plan.status().code(), legacy.status().code());
  }

  // Shape-mismatched fallback DM: the legacy path only errors once a
  // zero row actually needs it, so the plan compiles fine and surfaces
  // the identical error at Execute time.
  sparse::CsrMatrix bad(2, 4);
  opts.fallback_dm = &bad;
  {
    auto legacy = core::CrosswalkUncompiled(w.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = std::move(core::CrosswalkPlan::Compile(w.input, opts))
                    .ValueOrDie();
    auto executed = plan.Execute(w.input.objective_source);
    ASSERT_FALSE(executed.ok());
    EXPECT_EQ(executed.status().message(), legacy.status().message());
    EXPECT_EQ(executed.status().code(), legacy.status().code());
  }

  // The fused aggregates-only lane surfaces the identical error when a
  // zero row actually needs the mismatched fallback (aligned world, so
  // the fused kernel — not the materializing fallback lane — detects
  // it).
  {
    ZeroRowWorld aligned = MakeAlignedZeroRowWorld();
    auto legacy = core::CrosswalkUncompiled(aligned.input, opts);
    ASSERT_FALSE(legacy.ok());
    auto plan = std::move(core::CrosswalkPlan::Compile(aligned.input, opts))
                    .ValueOrDie();
    ASSERT_TRUE(plan.references().aligned());
    auto fused = plan.Execute(aligned.input.objective_source,
                              core::ExecuteOutput::kAggregatesOnly);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().message(), legacy.status().message());
    EXPECT_EQ(fused.status().code(), legacy.status().code());
  }
}

TEST(PlanEquivalenceTest, PlanIsReusableAndOutlivesInput) {
  core::CrosswalkInput input = MakeWorldInput();
  core::GeoAlignOptions opts;
  opts.threads = 1;
  auto want = std::move(core::CrosswalkUncompiled(input, opts)).ValueOrDie();

  std::optional<core::CrosswalkPlan> plan;
  linalg::Vector objective = input.objective_source;
  {
    // The plan must not alias caller memory: destroy the input (and
    // the interpolator that compiled it) before executing.
    core::CrosswalkInput doomed = input;
    core::GeoAlign geoalign(opts);
    plan.emplace(std::move(geoalign.Compile(doomed)).ValueOrDie());
  }
  for (int rep = 0; rep < 3; ++rep) {
    auto got = std::move(plan->Execute(objective)).ValueOrDie();
    ExpectBitIdentical(got, want);
  }
  // A thread pool is a pure scheduling choice on the shared immutable
  // plan: ExecuteMany fans kFullDm panels out over 4 workers.
  common::ThreadPool pool(4);
  auto threaded = std::move(plan->ExecuteMany(
                                20,
                                [&](size_t, linalg::Vector*) {
                                  return Result<common::ColumnView>(objective);
                                },
                                &pool, core::ExecuteOutput::kFullDm))
                      .ValueOrDie();
  ASSERT_EQ(threaded.size(), 20u);
  for (const core::CrosswalkResult& got : threaded) {
    ExpectBitIdentical(got, want);
  }
}

std::vector<std::string> MakeUnitNames(const char* prefix, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(StrFormat("%s%06zu", prefix, i));
  }
  return names;
}

TEST(PlanEquivalenceTest, PipelineRejectsDuplicateUnitNames) {
  ZeroRowWorld w = MakeZeroRowWorld();
  std::vector<std::string> sources = {"s0", "s1", "s0"};
  std::vector<std::string> targets = MakeUnitNames("t", 4);
  auto dup_source = core::CrosswalkPipeline::Create(
      sources, targets, w.input.references);
  ASSERT_FALSE(dup_source.ok());
  EXPECT_EQ(dup_source.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_source.status().message().find(
                "duplicate source unit name 's0'"),
            std::string::npos)
      << dup_source.status().message();

  auto dup_target = core::CrosswalkPipeline::Create(
      MakeUnitNames("s", 3), {"t0", "t1", "t2", "t1"}, w.input.references);
  ASSERT_FALSE(dup_target.ok());
  EXPECT_EQ(dup_target.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_target.status().message().find(
                "duplicate target unit name 't1'"),
            std::string::npos)
      << dup_target.status().message();
}

TEST(PlanEquivalenceTest, PipelineResolvesColumnsByPositionThenName) {
  // Column resolution tries the unit at the entry's own position before
  // hashing. Unit names are unique, so order, duplicates and unknown
  // names must behave exactly as a pure name lookup would.
  ZeroRowWorld w = MakeZeroRowWorld();
  const std::vector<std::string> sources = {"s0", "s1", "s2"};
  const std::vector<std::string> targets = {"t0", "t1", "t2", "t3"};
  auto pipeline = std::move(core::CrosswalkPipeline::Create(
                                sources, targets, w.input.references))
                      .ValueOrDie();
  const linalg::Vector want =
      std::move(core::CrosswalkUncompiled(w.input, core::GeoAlignOptions{}))
          .ValueOrDie()
          .target_estimates;
  const std::vector<core::CrosswalkPipeline::Column> same_column = {
      {{"s0", 5.0}, {"s1", 7.0}, {"s2", 9.0}},   // universe order
      {{"s2", 9.0}, {"s0", 5.0}, {"s1", 7.0}},   // shuffled
      {{"s0", 2.0}, {"s0", 3.0}, {"s1", 7.0}, {"s2", 9.0}},  // sums
      {{"s1", 7.0}, {"s2", 9.0}, {"s0", 2.0}, {"s0", 3.0}},  // past the end
  };
  for (const core::CrosswalkPipeline::Column& column : same_column) {
    auto realigned = std::move(pipeline.Realign(column)).ValueOrDie();
    EXPECT_EQ(realigned.target_estimates, want);
  }
  auto unknown = pipeline.Realign({{"s0", 5.0}, {"nope", 1.0}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("unknown unit 'nope'"),
            std::string::npos);

  // Join resolves its target column over the target units the same way.
  auto joined = std::move(pipeline.Join(same_column[0], {{"t3", 4.0},
                                                         {"t1", 1.0},
                                                         {"t0", 0.5},
                                                         {"t1", 1.0}}))
                    .ValueOrDie();
  ASSERT_EQ(joined.size(), targets.size());
  const std::vector<double> target_values = {0.5, 2.0, 0.0, 4.0};
  for (size_t j = 0; j < joined.size(); ++j) {
    EXPECT_EQ(joined[j].target_unit, targets[j]);
    EXPECT_EQ(joined[j].objective_estimate, want[j]);
    EXPECT_EQ(joined[j].target_value, target_values[j]);
  }
  auto bad_target = pipeline.Join(same_column[0], {{"t9", 1.0}});
  ASSERT_FALSE(bad_target.ok());
  EXPECT_EQ(bad_target.status().code(), StatusCode::kNotFound);
}

TEST(PlanEquivalenceTest, PipelineServesSharedPlanBitIdentically) {
  core::CrosswalkInput input = MakeWorldInput();
  std::vector<std::string> sources =
      MakeUnitNames("s", input.NumSourceUnits());
  std::vector<std::string> targets =
      MakeUnitNames("t", input.NumTargetUnits());
  auto pipeline = std::move(core::CrosswalkPipeline::Create(
                                sources, targets, input.references))
                      .ValueOrDie();
  ASSERT_NE(pipeline.plan(), nullptr)
      << "a GeoAlign pipeline must compile its plan in Create";

  // A few named columns: full, sparse (missing units read as 0), and
  // one with a repeated unit (values add).
  std::vector<core::CrosswalkPipeline::Column> columns;
  core::CrosswalkPipeline::Column full;
  for (size_t i = 0; i < sources.size(); ++i) {
    full.emplace_back(sources[i], input.objective_source[i]);
  }
  columns.push_back(full);
  core::CrosswalkPipeline::Column sparse_col;
  for (size_t i = 0; i < sources.size(); i += 3) {
    sparse_col.emplace_back(sources[i], 1.0 + static_cast<double>(i));
  }
  columns.push_back(sparse_col);
  core::CrosswalkPipeline::Column repeated = sparse_col;
  repeated.emplace_back(sources[0], 2.5);
  columns.push_back(repeated);

  // RealignMany over the shared plan ≡ looping Realign, for any thread
  // count and output shape — and Realign itself ≡ the legacy oracle.
  auto many1 = std::move(pipeline.RealignMany(columns, 1)).ValueOrDie();
  auto many4 = std::move(pipeline.RealignMany(columns, 4)).ValueOrDie();
  ASSERT_EQ(many1.size(), columns.size());
  ASSERT_EQ(many4.size(), columns.size());
  std::vector<std::vector<core::CrosswalkResult>> full_many, agg_many;
  for (size_t threads : {size_t{2}, size_t{3}, size_t{5}}) {
    full_many.push_back(
        std::move(pipeline.RealignMany(columns, threads)).ValueOrDie());
    ASSERT_EQ(full_many.back().size(), columns.size());
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{5}}) {
    agg_many.push_back(
        std::move(pipeline.RealignMany(columns, threads,
                                       core::ExecuteOutput::kAggregatesOnly))
            .ValueOrDie());
    ASSERT_EQ(agg_many.back().size(), columns.size());
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    SCOPED_TRACE(StrFormat("column %zu", i));
    auto single = std::move(pipeline.Realign(columns[i])).ValueOrDie();
    ExpectBitIdentical(many1[i], single);
    ExpectBitIdentical(many4[i], single);
    for (const auto& many : full_many) ExpectBitIdentical(many[i], single);
    for (const auto& many : agg_many) ExpectAggregatesOnly(many[i], single);

    core::CrosswalkInput per_call = input;
    per_call.objective_source.assign(sources.size(), 0.0);
    for (const auto& [unit, value] : columns[i]) {
      size_t idx = static_cast<size_t>(
          std::stoul(unit.substr(1)));  // "s%06zu" → index
      per_call.objective_source[idx] += value;
    }
    auto legacy = std::move(core::CrosswalkUncompiled(
                                per_call, core::GeoAlignOptions{}))
                      .ValueOrDie();
    ExpectBitIdentical(single, legacy);
  }

  // Unknown unit names still error through the hoisted index.
  auto unknown = pipeline.Realign({{"nope", 1.0}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown unit 'nope'"),
            std::string::npos);
}

TEST(PlanEquivalenceTest, PanelLaneServesWithZeroHotPathAllocs) {
  // The panel-lane steady-state promise: a workspace taken through
  // Prepare + PreparePanel serves whole panels without a single buffer
  // growth (execute.hot_path_allocs stays flat from panel 0).
  bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  {
    core::CrosswalkInput input = MakeAlignedDenseInput();
    core::GeoAlignOptions opts;
    opts.threads = 1;
    auto plan = std::move(core::CrosswalkPlan::Compile(input, opts))
                    .ValueOrDie();
    ASSERT_TRUE(plan.references().aligned());
    constexpr size_t kWidth = 8;
    core::ExecuteWorkspace workspace;
    workspace.Prepare(plan.workspace_spec(), /*slots=*/1);
    workspace.PreparePanel(plan.workspace_spec(), kWidth);

    obs::Counter& allocs = obs::MetricsRegistry::Global().GetCounter(
        "execute.hot_path_allocs");
    uint64_t allocs_before = allocs.Value();
    common::ColumnView objs[kWidth];
    std::optional<Result<core::CrosswalkResult>> slots[kWidth];
    std::optional<Result<core::CrosswalkResult>>* slot_ptrs[kWidth];
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t p = 0; p < kWidth; ++p) {
        objs[p] = input.objective_source;
        slots[p].reset();
        slot_ptrs[p] = &slots[p];
      }
      plan.ExecutePanelWith(objs, slot_ptrs, kWidth, &workspace);
      for (auto& slot : slots) {
        ASSERT_TRUE(slot.has_value());
        ASSERT_TRUE(slot->ok());
      }
    }
    EXPECT_EQ(allocs.Value(), allocs_before)
        << "a PreparePanel'd workspace must serve panels without growth";
  }
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, PlanExecutesIdenticallyAcrossForcedIsas) {
  // Satellite of the SIMD dispatch: the panel width is an execute-time
  // property derived from the active ISA, NEVER part of the plan or
  // its fingerprint — so a plan compiled under any ISA carries the same
  // fingerprint and serves every ISA with identical bits.
  // ScopedForceIsa is the in-process form of GEOALIGN_FORCE_ISA
  // (tools/ci.sh runs the whole suite under the env form too).
  core::CrosswalkInput input = MakeAlignedDenseInput();
  core::GeoAlignOptions opts;
  opts.threads = 1;
  auto plan = std::move(core::CrosswalkPlan::Compile(input.references, opts))
                  .ValueOrDie();
  ASSERT_TRUE(plan.references().aligned());
  const uint64_t fingerprint = plan.fingerprint();

  // Three distinct objectives so the panel has real lane diversity.
  std::vector<linalg::Vector> objectives;
  objectives.push_back(input.objective_source);
  linalg::Vector scaled = input.objective_source;
  linalg::Scale(scaled, 2.5);
  objectives.push_back(std::move(scaled));
  linalg::Vector shifted = input.objective_source;
  for (size_t i = 0; i < shifted.size(); ++i) {
    shifted[i] += static_cast<double>(i % 7);
  }
  objectives.push_back(std::move(shifted));

  auto run_panel = [&](sparse::simd::Isa isa) {
    sparse::simd::ScopedForceIsa force(isa);
    // The fingerprint must not see the ISA: a compile under any forced
    // ISA gives the same value.
    auto again = std::move(core::CrosswalkPlan::Compile(input.references,
                                                        opts))
                     .ValueOrDie();
    EXPECT_EQ(again.fingerprint(), fingerprint)
        << "forcing an ISA must not change the plan fingerprint";
    EXPECT_EQ(plan.fingerprint(), fingerprint);
    EXPECT_GE(plan.panel_width(), 1u);
    EXPECT_LE(plan.panel_width(), sparse::simd::kMaxPanelWidth);

    common::ColumnView objs[3];
    std::optional<Result<core::CrosswalkResult>> slots[3];
    std::optional<Result<core::CrosswalkResult>>* slot_ptrs[3];
    for (size_t p = 0; p < 3; ++p) {
      objs[p] = objectives[p];
      slot_ptrs[p] = &slots[p];
    }
    plan.ExecutePanelWith(objs, slot_ptrs, 3, nullptr);
    std::vector<core::CrosswalkResult> out;
    for (auto& slot : slots) {
      out.push_back(std::move(*slot).ValueOrDie());
    }
    return out;
  };

  auto scalar_results = run_panel(sparse::simd::Isa::kScalar);
  auto native_results = run_panel(sparse::simd::BestSupportedIsa());
  ASSERT_EQ(scalar_results.size(), native_results.size());
  for (size_t p = 0; p < scalar_results.size(); ++p) {
    SCOPED_TRACE(StrFormat("objective %zu", p));
    ExpectAggregatesOnly(native_results[p], scalar_results[p]);
    // And both match the legacy oracle for that objective.
    core::CrosswalkInput per_call = input;
    per_call.objective_source = objectives[p];
    auto legacy = std::move(core::CrosswalkUncompiled(per_call, opts))
                      .ValueOrDie();
    ExpectAggregatesOnly(scalar_results[p], legacy);
  }
}

TEST(PlanEquivalenceTest, AlignedBatchRunServesPanelsBitIdentically) {
  // ExecuteMany on an aligned plan takes the panel serving path; every
  // result must still carry exactly the per-call Crosswalk and
  // per-column Execute bits, for serial and pooled runs alike — and a
  // wrong-length objective must fail with the plan's length error.
  core::CrosswalkInput input = MakeAlignedDenseInput();
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            input.references, core::GeoAlignOptions{}))
                  .ValueOrDie();

  // More objectives than one panel width so the panel loop runs
  // several panels (including a ragged final one).
  std::vector<linalg::Vector> objectives;
  for (size_t i = 0; i < 19; ++i) {
    linalg::Vector col = input.objective_source;
    linalg::Scale(col, 1.0 + 0.25 * static_cast<double>(i));
    objectives.push_back(std::move(col));
  }
  std::vector<core::CrosswalkResult> serial;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    auto results =
        std::move(ExecuteBatch(plan, objectives, threads)).ValueOrDie();
    ASSERT_EQ(results.size(), objectives.size());
    core::GeoAlignOptions opts;
    opts.threads = threads;
    core::GeoAlign geoalign(opts);
    for (size_t i = 0; i < objectives.size(); ++i) {
      SCOPED_TRACE(StrFormat("col%zu", i));
      core::CrosswalkInput per_call = input;
      per_call.objective_source = objectives[i];
      auto want = std::move(geoalign.Crosswalk(per_call)).ValueOrDie();
      ASSERT_EQ(results[i].target_estimates, want.target_estimates);
      ASSERT_EQ(results[i].weights, want.weights);
      ASSERT_EQ(results[i].zero_rows, want.zero_rows);
      ExpectAggregatesOnly(
          results[i],
          std::move(plan.Execute(objectives[i],
                                 core::ExecuteOutput::kAggregatesOnly))
              .ValueOrDie());
      if (threads == 1) {
        serial.push_back(std::move(results[i]));
      } else {
        ExpectAggregatesOnly(results[i], serial[i]);
      }
    }

    // Error parity through the panel path: the lowest-index failing
    // column's status is returned, whether the plan rejects its length
    // or the column source fails it.
    const linalg::Vector short_column{1.0, 2.0};
    std::unique_ptr<common::ThreadPool> pool =
        common::MakePoolOrNull(threads);
    auto serve = [&](size_t bad_length) {
      return plan.ExecuteMany(
          objectives.size(),
          [&](size_t i, linalg::Vector*) -> Result<common::ColumnView> {
            if (i == 9) {
              return Status::InvalidArgument("column 'col9' unresolvable");
            }
            return common::ColumnView(i == bad_length ? short_column
                                                      : objectives[i]);
          },
          pool.get(), core::ExecuteOutput::kAggregatesOnly);
    };
    auto failed = serve(3);
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find(
                  "objective length does not match source units"),
              std::string::npos)
        << failed.status().message();
    failed = serve(objectives.size());
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("column 'col9' unresolvable"),
              std::string::npos)
        << failed.status().message();
  }
}

TEST(PlanEquivalenceTest, AlignedPipelineRealignManyServesPanelsBitIdentically) {
  // CrosswalkPipeline::RealignMany(kAggregatesOnly) on an aligned plan
  // takes the panel serving path; results must match the per-column
  // Realign bits at every thread count, with unknown-unit errors still
  // reported per failing column.
  core::CrosswalkInput input = MakeAlignedDenseInput();
  std::vector<std::string> sources =
      MakeUnitNames("s", input.NumSourceUnits());
  std::vector<std::string> targets =
      MakeUnitNames("t", input.NumTargetUnits());
  auto pipeline = std::move(core::CrosswalkPipeline::Create(
                                sources, targets, input.references))
                      .ValueOrDie();
  ASSERT_NE(pipeline.plan(), nullptr);
  ASSERT_TRUE(pipeline.plan()->references().aligned());

  std::vector<core::CrosswalkPipeline::Column> columns;
  for (size_t i = 0; i < 21; ++i) {
    core::CrosswalkPipeline::Column col;
    for (size_t s = 0; s < sources.size(); ++s) {
      col.emplace_back(sources[s], input.objective_source[s] *
                                       (1.0 + 0.125 * static_cast<double>(i)));
    }
    columns.push_back(std::move(col));
  }
  auto many1 =
      std::move(pipeline.RealignMany(columns, 1,
                                     core::ExecuteOutput::kAggregatesOnly))
          .ValueOrDie();
  auto many4 =
      std::move(pipeline.RealignMany(columns, 4,
                                     core::ExecuteOutput::kAggregatesOnly))
          .ValueOrDie();
  ASSERT_EQ(many1.size(), columns.size());
  ASSERT_EQ(many4.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    SCOPED_TRACE(StrFormat("column %zu", i));
    auto single = std::move(pipeline.Realign(columns[i])).ValueOrDie();
    ExpectAggregatesOnly(many1[i], single);
    ExpectAggregatesOnly(many4[i], single);
  }

  // A column naming an unknown unit fails with its own status while
  // the panel still serves the valid columns around it.
  std::vector<core::CrosswalkPipeline::Column> with_bad = columns;
  with_bad[2] = {{"nope", 1.0}};
  auto failed = pipeline.RealignMany(with_bad, 1,
                                     core::ExecuteOutput::kAggregatesOnly);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("unknown unit 'nope'"),
            std::string::npos)
      << failed.status().message();
}

// A pipeline (its GeoAlign with options.threads = 4) and a compiled
// plan over the same world references.
struct TwoSurfaces {
  core::CrosswalkInput input;
  std::vector<std::string> sources;
  std::optional<core::CrosswalkPipeline> pipeline;
  std::optional<core::CrosswalkPlan> plan;
};

TwoSurfaces MakeTwoSurfaces() {
  TwoSurfaces w;
  w.input = MakeWorldInput();
  w.sources = MakeUnitNames("s", w.input.NumSourceUnits());
  core::GeoAlignOptions opts;
  opts.threads = 4;
  w.pipeline.emplace(
      std::move(core::CrosswalkPipeline::Create(
                    w.sources, MakeUnitNames("t", w.input.NumTargetUnits()),
                    w.input.references,
                    std::make_shared<core::GeoAlign>(opts)))
          .ValueOrDie());
  w.plan.emplace(
      std::move(core::CrosswalkPlan::Compile(w.input.references, opts))
          .ValueOrDie());
  return w;
}

core::CrosswalkPipeline::Column NamedColumn(
    const std::vector<std::string>& sources, const linalg::Vector& values) {
  core::CrosswalkPipeline::Column column;
  for (size_t i = 0; i < sources.size(); ++i) {
    column.emplace_back(sources[i], values[i]);
  }
  return column;
}

TEST(PlanEquivalenceTest, SequentialRealignManyStartsNoPool) {
  // threads = 1 means sequential: no pool at all, not even one for the
  // kernels sized by the method's options.threads.
  TwoSurfaces w = MakeTwoSurfaces();
  std::vector<core::CrosswalkPipeline::Column> columns(
      3, NamedColumn(w.sources, w.input.objective_source));
  const bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter& started = obs::MetricsRegistry::Global().GetCounter(
      "thread_pool.workers_started");
  for (core::ExecuteOutput output :
       {core::ExecuteOutput::kFullDm, core::ExecuteOutput::kAggregatesOnly}) {
    const uint64_t before = started.Value();
    auto many = w.pipeline->RealignMany(columns, 1, output);
    EXPECT_TRUE(many.ok()) << many.status().ToString();
    EXPECT_EQ(started.Value() - before, 0u);
  }
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, ServingSurfacesCountEveryOfferedColumn) {
  // realign.columns_total counts the columns offered, failing ones
  // included, on both surfaces and at every thread count.
  TwoSurfaces w = MakeTwoSurfaces();
  std::vector<core::CrosswalkPipeline::Column> columns(
      3, NamedColumn(w.sources, w.input.objective_source));
  columns[1] = {{"nope", 1.0}};
  std::vector<linalg::Vector> objectives(3, w.input.objective_source);
  objectives[1] = linalg::Vector{1.0, 2.0};
  const bool saved_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter& total =
      obs::MetricsRegistry::Global().GetCounter("realign.columns_total");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("threads=%zu", threads));
    uint64_t before = total.Value();
    EXPECT_FALSE(w.pipeline->RealignMany(columns, threads).ok());
    EXPECT_EQ(total.Value() - before, columns.size());
  }
  const uint64_t before = total.Value();
  EXPECT_FALSE(ExecuteBatch(*w.plan, objectives, 4).ok());
  EXPECT_EQ(total.Value() - before, objectives.size());
  obs::SetEnabled(saved_enabled);
}

TEST(PlanEquivalenceTest, SingleColumnOnPoolMatchesAcrossSurfaces) {
  // One column with a 4-thread pool: both surfaces run the single
  // group inline and carry the same bits as a sequential execute.
  TwoSurfaces w = MakeTwoSurfaces();
  auto many = std::move(w.pipeline->RealignMany(
                            {NamedColumn(w.sources, w.input.objective_source)},
                            4, core::ExecuteOutput::kAggregatesOnly))
                  .ValueOrDie();
  auto batch =
      std::move(ExecuteBatch(*w.plan, {w.input.objective_source}, 4))
          .ValueOrDie();
  auto want =
      std::move(w.pipeline->plan()->Execute(w.input.objective_source))
          .ValueOrDie();
  ASSERT_EQ(many.size(), 1u);
  ASSERT_EQ(batch.size(), 1u);
  ExpectAggregatesOnly(many[0], want);
  ASSERT_EQ(batch[0].target_estimates, want.target_estimates);
  ASSERT_EQ(batch[0].weights, want.weights);
  ASSERT_EQ(batch[0].zero_rows, want.zero_rows);
}

TEST(PlanEquivalenceTest, BatchMatchesCrosswalkBitIdentically) {
  core::CrosswalkInput input = MakeWorldInput();
  for (core::WeightSolver solver :
       {core::WeightSolver::kSimplex, core::WeightSolver::kNnlsNormalized,
        core::WeightSolver::kClampedLs, core::WeightSolver::kUniform}) {
    SCOPED_TRACE(StrFormat("solver=%d", static_cast<int>(solver)));
    core::GeoAlignOptions opts;
    opts.solver = solver;
    opts.threads = 1;
    auto plan = std::move(core::CrosswalkPlan::Compile(input.references, opts))
                    .ValueOrDie();

    std::vector<linalg::Vector> objectives;
    objectives.push_back(input.objective_source);
    linalg::Vector scaled = input.objective_source;
    linalg::Scale(scaled, 3.25);
    objectives.push_back(std::move(scaled));

    auto results = std::move(ExecuteBatch(plan, objectives, 1)).ValueOrDie();
    ASSERT_EQ(results.size(), objectives.size());
    core::GeoAlign geoalign(opts);
    for (size_t i = 0; i < objectives.size(); ++i) {
      SCOPED_TRACE(i == 0 ? "base" : "scaled");
      core::CrosswalkInput per_call = input;
      per_call.objective_source = objectives[i];
      auto want = std::move(geoalign.Crosswalk(per_call)).ValueOrDie();
      ASSERT_EQ(results[i].target_estimates, want.target_estimates);
      ASSERT_EQ(results[i].weights, want.weights);
      ASSERT_EQ(results[i].zero_rows, want.zero_rows);
    }
  }
}

}  // namespace
}  // namespace geoalign
