// Edge cases of the zero-copy view layer (common/span.h, the borrowed
// CsrMatrix mode, and the view-based compile paths) plus the hardened
// columnar io::Table error paths.
//
// The load-bearing assertions:
//  - compiling from views copies ZERO aggregate-column bytes (counter
//    delta on `ingest.bytes_copied` plus pointer identity into the
//    prepared set), while the owning path counts every byte it copies;
//  - borrowed buffers guarded by keepalives survive the caller
//    dropping its handle;
//  - odd-length / misaligned views (offset into a larger host buffer)
//    produce bit-identical results through the SIMD panel path;
//  - Table::Create rejects duplicate headers and NumericColumn reports
//    the offending row and cell text, including trailing garbage.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/crosswalk_plan.h"
#include "core/geoalign.h"
#include "oracles/crosswalk_uncompiled.h"
#include "core/pipeline.h"
#include "io/csv.h"
#include "io/table.h"
#include "obs/metrics.h"
#include "sparse/csr_matrix.h"

namespace geoalign {
namespace {

uint64_t IngestBytes() {
  return obs::MetricsRegistry::Global()
      .GetCounter("ingest.bytes_copied")
      .Value();
}

// ---- ConstSpan / Buffer basics ----------------------------------------

TEST(ConstSpanTest, DefaultIsEmpty) {
  common::ColumnView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.data(), nullptr);
  EXPECT_EQ(v.begin(), v.end());
}

TEST(ConstSpanTest, ViewsVectorWithoutCopying) {
  std::vector<double> host = {1.0, 2.0, 3.0};
  common::ColumnView v = host;
  EXPECT_EQ(v.data(), host.data());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.0);
  EXPECT_EQ(v.front(), 1.0);
  EXPECT_EQ(v.back(), 3.0);
}

TEST(ConstSpanTest, ElementwiseEqualityAcrossStorage) {
  std::vector<double> a = {1.0, 2.0};
  std::vector<double> b = {1.0, 2.0};
  // Same values, different memory: equal. Mixed span/vector comparisons
  // resolve through the implicit conversion.
  EXPECT_TRUE(common::ColumnView(a) == common::ColumnView(b));
  EXPECT_TRUE(common::ColumnView(a) == b);
  b[1] = 3.0;
  EXPECT_TRUE(common::ColumnView(a) != common::ColumnView(b));
  EXPECT_FALSE(common::ColumnView(a) == common::ColumnView(b).subspan(0, 1));
}

TEST(ConstSpanTest, EmptyViewOverEmptyVector) {
  std::vector<double> host;
  common::ColumnView v = host;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v == common::ColumnView());
}

TEST(BufferTest, KeepaliveExtendsLifetime) {
  common::ColumnView view;
  std::shared_ptr<const void> keepalive;
  {
    common::Buffer buf = common::Buffer::FromVector({4.0, 5.0});
    view = buf.view();
    keepalive = buf.keepalive();
  }  // Buffer gone; keepalive still holds the storage.
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 4.0);
  EXPECT_EQ(view[1], 5.0);
  EXPECT_NE(keepalive, nullptr);
}

TEST(BufferTest, EmptyBufferHasNoKeepalive) {
  common::Buffer buf;
  EXPECT_TRUE(buf.view().empty());
  EXPECT_EQ(buf.keepalive(), nullptr);
}

// ---- zero-copy compile paths ------------------------------------------

// One aligned two-reference world, built both ways: owning
// CrosswalkInput and borrowed reference views over the same bytes.
struct World {
  // Caller-owned storage (what an embedding host would hold).
  std::vector<size_t> row_ptr = {0, 2, 4, 5};
  std::vector<size_t> col_idx = {0, 1, 0, 1, 1};
  std::vector<double> values_a = {1.0, 2.0, 3.0, 1.0, 4.0};
  std::vector<double> values_b = {2.0, 1.0, 1.0, 2.0, 3.0};
  std::vector<double> agg_a = {3.0, 4.0, 4.0};
  std::vector<double> agg_b = {3.0, 3.0, 3.0};
  std::vector<double> objective = {10.0, 20.0, 30.0};

  core::CrosswalkInput Owning() const {
    core::CrosswalkInput input;
    input.objective_source = objective;
    input.references.resize(2);
    input.references[0].name = "a";
    input.references[0].source_aggregates = agg_a;
    input.references[0].disaggregation =
        std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, row_ptr, col_idx,
                                                   values_a))
            .ValueOrDie();
    input.references[1].name = "b";
    input.references[1].source_aggregates = agg_b;
    input.references[1].disaggregation =
        std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, row_ptr, col_idx,
                                                   values_b))
            .ValueOrDie();
    return input;
  }

  std::vector<core::ReferenceAttributeView> Borrowing() const {
    std::vector<core::ReferenceAttributeView> references(2);
    references[0].name = "a";
    references[0].source_aggregates = agg_a;
    references[0].disaggregation =
        std::move(sparse::CsrMatrix::FromBorrowed(
                      {3, 2, row_ptr, col_idx, values_a}))
            .ValueOrDie();
    references[1].name = "b";
    references[1].source_aggregates = agg_b;
    references[1].disaggregation =
        std::move(sparse::CsrMatrix::FromBorrowed(
                      {3, 2, row_ptr, col_idx, values_b}))
            .ValueOrDie();
    return references;
  }
};

TEST(ZeroCopyCompileTest, ViewPathCopiesNoBytesAndAliasesCallerMemory) {
  World w;
  const uint64_t before = IngestBytes();
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            w.Borrowing(), core::GeoAlignOptions{}))
                  .ValueOrDie();
  EXPECT_EQ(IngestBytes(), before) << "view-based compile must not copy";

  // The prepared set reads the caller's aggregate columns in place.
  EXPECT_EQ(plan.references().reference(0).source_aggregates.data(),
            w.agg_a.data());
  EXPECT_EQ(plan.references().reference(1).source_aggregates.data(),
            w.agg_b.data());
  // And the borrowed DM aliases the caller's CSR arrays.
  EXPECT_EQ(plan.references().reference(0).disaggregation.values().data(),
            w.values_a.data());
  EXPECT_EQ(plan.references().reference(0).disaggregation.row_ptr().data(),
            w.row_ptr.data());
}

TEST(ZeroCopyCompileTest, OwningPathCountsItsCopies) {
  World w;
  const uint64_t before = IngestBytes();
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            w.Owning(), core::GeoAlignOptions{}))
                  .ValueOrDie();
  // Per reference: 3 aggregate doubles + 4 row_ptr size_t + 5 col_idx
  // size_t + 5 value doubles.
  const uint64_t per_ref = 3 * sizeof(double) + 4 * sizeof(size_t) +
                           5 * (sizeof(size_t) + sizeof(double));
  EXPECT_EQ(IngestBytes(), before + 2 * per_ref);
  EXPECT_EQ(plan.num_source_units(), 3u);
}

TEST(ZeroCopyCompileTest, BothPathsAreBitIdentical) {
  World w;
  auto owning = std::move(core::CrosswalkPlan::Compile(
                              w.Owning(), core::GeoAlignOptions{}))
                    .ValueOrDie();
  auto viewed = std::move(core::CrosswalkPlan::Compile(
                              w.Borrowing(), core::GeoAlignOptions{}))
                    .ValueOrDie();
  // Same bytes -> same fingerprint (PlanCache keys are ingest-path
  // independent), same results bit-for-bit.
  EXPECT_EQ(owning.fingerprint(), viewed.fingerprint());
  auto r1 = std::move(owning.Execute(w.objective)).ValueOrDie();
  auto r2 = std::move(viewed.Execute(w.objective)).ValueOrDie();
  ASSERT_EQ(r1.target_estimates.size(), r2.target_estimates.size());
  EXPECT_EQ(0, std::memcmp(r1.target_estimates.data(),
                           r2.target_estimates.data(),
                           r1.target_estimates.size() * sizeof(double)));
  ASSERT_EQ(r1.weights.size(), r2.weights.size());
  EXPECT_EQ(0, std::memcmp(r1.weights.data(), r2.weights.data(),
                           r1.weights.size() * sizeof(double)));
}

TEST(ZeroCopyCompileTest, KeepaliveOutlivesTheCallerHandle) {
  World w;
  std::optional<core::CrosswalkPlan> plan;
  {
    // Host storage owned by ref-counted buffers the caller drops right
    // after compiling; the plan holds the keepalives.
    auto agg = std::make_shared<const std::vector<double>>(w.agg_a);
    auto vals = std::make_shared<const std::vector<double>>(w.values_a);
    core::ReferenceAttributeView ref;
    ref.name = "a";
    ref.source_aggregates = *agg;
    ref.keepalive = agg;
    ref.disaggregation =
        std::move(sparse::CsrMatrix::FromBorrowed(
                      {3, 2, w.row_ptr, w.col_idx, *vals}, vals))
            .ValueOrDie();
    std::vector<core::ReferenceAttributeView> refs;
    refs.push_back(std::move(ref));
    plan = std::move(core::CrosswalkPlan::Compile(std::move(refs),
                                                  core::GeoAlignOptions{}))
               .ValueOrDie();
  }  // Caller handles gone.
  auto res = std::move(plan->Execute(w.objective)).ValueOrDie();
  ASSERT_EQ(res.target_estimates.size(), 2u);
  // One reference: GeoAlign degenerates to disaggregate-and-reaggregate
  // by that reference, which preserves total volume.
  EXPECT_NEAR(res.target_estimates[0] + res.target_estimates[1], 60.0, 1e-9);
}

TEST(ZeroCopyCompileTest, OddLengthMisalignedViewsMatchThroughPanels) {
  // Views offset one double into a larger host buffer: 8-byte aligned
  // but deliberately off any 16/32-byte vector boundary, with an
  // odd length (3) so the SIMD panel path sees ragged tails.
  World w;
  std::vector<double> host_agg(1 + w.agg_a.size(), -1.0);
  std::vector<double> host_obj(1 + w.objective.size(), -1.0);
  std::copy(w.agg_a.begin(), w.agg_a.end(), host_agg.begin() + 1);
  std::copy(w.objective.begin(), w.objective.end(), host_obj.begin() + 1);

  core::ReferenceAttributeView ref;
  ref.name = "a";
  ref.source_aggregates = common::ColumnView(host_agg.data() + 1, 3);
  ref.disaggregation = std::move(sparse::CsrMatrix::FromBorrowed(
                                     {3, 2, w.row_ptr, w.col_idx, w.values_a}))
                           .ValueOrDie();
  std::vector<core::ReferenceAttributeView> refs;
  refs.push_back(std::move(ref));
  auto plan = std::move(core::CrosswalkPlan::Compile(std::move(refs),
                                                     core::GeoAlignOptions{}))
                  .ValueOrDie();

  const common::ColumnView obj(host_obj.data() + 1, 3);
  auto direct = std::move(plan.Execute(obj)).ValueOrDie();

  constexpr size_t kWidth = 3;
  common::ColumnView objs[kWidth] = {obj, obj, obj};
  std::optional<Result<core::CrosswalkResult>> slots[kWidth];
  std::optional<Result<core::CrosswalkResult>>* slot_ptrs[kWidth] = {
      &slots[0], &slots[1], &slots[2]};
  plan.ExecutePanelWith(objs, slot_ptrs, kWidth, nullptr);
  for (auto& slot : slots) {
    ASSERT_TRUE(slot.has_value());
    auto paneled = std::move(*slot).ValueOrDie();
    ASSERT_EQ(paneled.target_estimates.size(),
              direct.target_estimates.size());
    EXPECT_EQ(0, std::memcmp(paneled.target_estimates.data(),
                             direct.target_estimates.data(),
                             direct.target_estimates.size() * sizeof(double)))
        << "misaligned view drifted through the panel path";
  }
}

TEST(ZeroCopyCompileTest, EmptyObjectiveViewIsRejected) {
  World w;
  core::CrosswalkInput input = w.Owning();
  input.objective_source.clear();
  EXPECT_FALSE(input.Validate().ok());
  auto plan = std::move(core::CrosswalkPlan::Compile(
                            w.Borrowing(), core::GeoAlignOptions{}))
                  .ValueOrDie();
  EXPECT_FALSE(plan.Execute(common::ColumnView()).ok());
}

TEST(ZeroCopyCompileTest, CrosswalkCopiesNothingAndMatchesLegacy) {
  World w;
  // The aligned world, plus an unaligned one: reference b moved onto its
  // own CSR pattern, so the compile scatters onto a union structure.
  core::CrosswalkInput unaligned = w.Owning();
  unaligned.references[1].disaggregation =
      std::move(sparse::CsrMatrix::FromCsrArrays(
                    3, 2, {0, 1, 3, 4}, {0, 0, 1, 1}, {3.0, 1.0, 2.0, 3.0}))
          .ValueOrDie();
  for (const core::CrosswalkInput& input : {w.Owning(), unaligned}) {
    const uint64_t before = IngestBytes();
    auto compiled = std::move(core::GeoAlign().Crosswalk(input)).ValueOrDie();
    EXPECT_EQ(IngestBytes(), before) << "a one-shot Crosswalk must not copy";
    auto legacy = std::move(core::CrosswalkUncompiled(
                                input, core::GeoAlignOptions{}))
                      .ValueOrDie();
    auto same = [](common::ConstSpan<double> a, common::ConstSpan<double> b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(same(compiled.target_estimates, legacy.target_estimates));
    EXPECT_TRUE(same(compiled.weights, legacy.weights));
    EXPECT_TRUE(same(compiled.estimated_dm.values(),
                     legacy.estimated_dm.values()));
    EXPECT_TRUE(compiled.estimated_dm.row_ptr() ==
                legacy.estimated_dm.row_ptr());
    EXPECT_TRUE(compiled.estimated_dm.col_idx() ==
                legacy.estimated_dm.col_idx());
    EXPECT_EQ(compiled.zero_rows, legacy.zero_rows);
  }
}

TEST(ZeroCopyCompileTest, PipelineCreateFailsAlikeOnBothOverloads) {
  World w;
  // An all-zero reference cannot be max-normalized for Eq. 15.
  core::CrosswalkInput input = w.Owning();
  input.references[0].source_aggregates.assign(3, 0.0);
  input.references[0].disaggregation =
      std::move(sparse::CsrMatrix::FromCsrArrays(3, 2, {0, 0, 0, 0}, {}, {}))
          .ValueOrDie();
  const std::vector<std::string> source = {"s0", "s1", "s2"};
  const std::vector<std::string> target = {"t0", "t1"};
  auto viewed = core::CrosswalkPipeline::Create(
      source, target, core::BorrowReferences(input.references));
  auto owning =
      core::CrosswalkPipeline::Create(source, target, input.references);
  ASSERT_FALSE(viewed.ok());
  ASSERT_FALSE(owning.ok())
      << "a GeoAlign pipeline whose references cannot compile must fail "
         "Create";
  EXPECT_EQ(owning.status().code(), viewed.status().code());
  EXPECT_EQ(owning.status().message(), viewed.status().message());
}

// ---- hardened Table error paths ---------------------------------------

TEST(TableHardeningTest, CreateRejectsDuplicateColumnNames) {
  auto table = io::Table::Create({"unit", "value", "unit"});
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("duplicate column name 'unit'"),
            std::string::npos);
}

TEST(TableHardeningTest, ParseCsvRejectsDuplicateHeader) {
  EXPECT_FALSE(io::ParseCsv("a,b,a\n1,2,3\n").ok());
}

TEST(TableHardeningTest, NumericColumnRejectsTrailingGarbage) {
  io::Table table({"unit", "value"});
  ASSERT_TRUE(table.AppendRow({"u0", "1.5"}).ok());
  ASSERT_TRUE(table.AppendRow({"u1", "12x"}).ok());
  auto col = table.NumericColumn("value");
  ASSERT_FALSE(col.ok());
  // The hardened error names the column, the offending row, and the
  // cell text.
  const std::string msg(col.status().message());
  EXPECT_NE(msg.find("column 'value'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("row 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'12x'"), std::string::npos) << msg;
}

TEST(TableHardeningTest, NumericColumnReportsFirstBadRow) {
  io::Table table({"v"});
  ASSERT_TRUE(table.AppendRow({"0.5"}).ok());
  ASSERT_TRUE(table.AppendRow({"oops"}).ok());
  ASSERT_TRUE(table.AppendRow({"also-bad"}).ok());
  auto col = table.NumericColumn("v");
  ASSERT_FALSE(col.ok());
  const std::string msg(col.status().message());
  EXPECT_NE(msg.find("row 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;
}

TEST(TableHardeningTest, KeyValueColumnReportsBadValueCell) {
  io::Table table({"unit", "value"});
  ASSERT_TRUE(table.AppendRow({"u0", "nope"}).ok());
  auto kv = table.KeyValueColumn("unit", "value");
  ASSERT_FALSE(kv.ok());
  const std::string msg(kv.status().message());
  EXPECT_NE(msg.find("row 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'nope'"), std::string::npos) << msg;
}

TEST(TableHardeningTest, EmptyColumnsParseCleanly) {
  io::Table table({"unit", "value"});
  EXPECT_EQ(table.NumRows(), 0u);
  auto col = std::move(table.NumericColumn("value")).ValueOrDie();
  EXPECT_TRUE(col.empty());
  auto kv = std::move(table.KeyValueColumn("unit", "value")).ValueOrDie();
  EXPECT_TRUE(kv.empty());
}

}  // namespace
}  // namespace geoalign
