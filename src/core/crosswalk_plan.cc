#include "core/crosswalk_plan.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <utility>

#include "linalg/nnls.h"
#include "linalg/qr.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sparse/simd/panel_kernels.h"

namespace geoalign::core {

namespace {

// Serving-path telemetry (catalog: docs/observability.md). Everything
// here OBSERVES only — no branch below may influence the reductions,
// preserving the bit-identity contract (tests/obs_test.cc pins
// enabled-vs-disabled equivalence).
obs::Counter& CompileCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("compile.count");
  return c;
}
obs::Histogram& CompileLatencyUs() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("compile.latency_us");
  return h;
}
obs::Counter& ExecuteCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.count");
  return c;
}
obs::Histogram& ExecuteLatencyUs() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("execute.latency_us");
  return h;
}
obs::Counter& ZeroRowsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.zero_rows");
  return c;
}
obs::Counter& FallbackRebuilds() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.fallback_rebuilds");
  return c;
}
// Workspace-growth events seen by executes (0 in steady state once a
// reused workspace is warm) and executes that completed through an
// externally supplied workspace without growing it.
obs::Counter& HotPathAllocs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.hot_path_allocs");
  return c;
}
obs::Counter& WorkspaceReuse() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.workspace_reuse");
  return c;
}
// Bytes the ingest path duplicated to get reference data into a plan
// (aggregate columns + the CSR arrays of DMs kept as they are). Only
// the owning Compile adapter pays this, once per reference; view
// compiles keep it at zero — the zero-copy contract tests and
// bench/ingest_path assert on the delta. Union arrays that Prepare
// derives for an unaligned set are not copies and are not counted.
obs::Counter& IngestBytesCopied() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("ingest.bytes_copied");
  return c;
}

// Panel-lane telemetry: panels served, their width distribution, and
// the ISA executes dispatch to (numeric Isa value; 0 = scalar,
// 1 = avx2, 2 = neon — docs/observability.md).
obs::Counter& PanelCount() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("execute.panel.count");
  return c;
}
obs::Histogram& PanelWidthHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "execute.panel_width", {1, 2, 4, 8, 16, 32, 64});
  return h;
}
obs::Gauge& ExecuteIsaGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("execute.isa");
  return g;
}

// Serving-surface telemetry, recorded by ExecuteMany (behind
// CrosswalkPipeline::RealignMany; the pipeline's single-column Realign
// shares the keys).
obs::Histogram& RealignLatencyUs() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("realign.latency_us");
  return h;
}
obs::Histogram& ColumnsPerBatch() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("realign.columns_per_batch");
  return h;
}
obs::Counter& ColumnsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("realign.columns_total");
  return c;
}

// One per-solver counter so the weight-solve mix is visible per
// WeightSolver, not just in aggregate.
obs::Counter& WeightSolveCount(WeightSolver solver) {
  static obs::Counter& simplex =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.simplex");
  static obs::Counter& nnls =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.nnls_normalized");
  static obs::Counter& clamped =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.clamped_ls");
  static obs::Counter& uniform =
      obs::MetricsRegistry::Global().GetCounter("weight_solve.uniform");
  switch (solver) {
    case WeightSolver::kSimplex:
      return simplex;
    case WeightSolver::kNnlsNormalized:
      return nnls;
    case WeightSolver::kClampedLs:
      return clamped;
    case WeightSolver::kUniform:
      return uniform;
  }
  return uniform;
}

}  // namespace

namespace internal {

Result<std::pair<linalg::Matrix, linalg::Vector>> BuildNormalizedSystem(
    const CrosswalkInput& input) {
  std::vector<linalg::Vector> cols;
  cols.reserve(input.references.size());
  for (const ReferenceAttribute& ref : input.references) {
    GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector norm,
                              linalg::NormalizeByMax(ref.source_aggregates));
    cols.push_back(std::move(norm));
  }
  GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector b,
                            linalg::NormalizeByMax(input.objective_source));
  return std::make_pair(linalg::Matrix::FromColumns(cols), std::move(b));
}

Result<linalg::Vector> SolveWeightsForDesign(const linalg::Matrix& a,
                                             const linalg::Vector& b,
                                             const GeoAlignOptions& options) {
  GEOALIGN_TRACE_SPAN("execute.weight_solve");
  WeightSolveCount(options.solver).Add(1);
  size_t n = a.cols();
  switch (options.solver) {
    case WeightSolver::kSimplex: {
      GEOALIGN_ASSIGN_OR_RETURN(
          linalg::SimplexLsSolution sol,
          linalg::SolveSimplexLeastSquares(a, b, options.solver_options));
      return sol.beta;
    }
    case WeightSolver::kNnlsNormalized: {
      GEOALIGN_ASSIGN_OR_RETURN(linalg::NnlsSolution sol,
                                linalg::SolveNnls(a, b));
      double total = linalg::Sum(sol.x);
      if (total <= 0.0) {
        // NNLS degenerated to the zero vector; fall back to uniform.
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Scale(sol.x, 1.0 / total);
      return sol.x;
    }
    case WeightSolver::kClampedLs: {
      auto ls = linalg::LeastSquaresQr(a, b);
      if (!ls.ok()) {
        // Rank-deficient design (duplicate references): uniform.
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Vector beta = std::move(ls).value();
      double total = 0.0;
      for (double& v : beta) {
        if (v < 0.0) v = 0.0;
        total += v;
      }
      if (total <= 0.0) {
        return linalg::Vector(n, 1.0 / static_cast<double>(n));
      }
      linalg::Scale(beta, 1.0 / total);
      return beta;
    }
    case WeightSolver::kUniform:
      return linalg::Vector(n, 1.0 / static_cast<double>(n));
  }
  return Status::Internal("unknown weight solver");
}

}  // namespace internal

CrosswalkPlan::CrosswalkPlan(sparse::PreparedReferenceSet prepared,
                             GeoAlignOptions options)
    : prepared_(std::move(prepared)), options_(std::move(options)) {}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    const CrosswalkInput& input, const GeoAlignOptions& options) {
  return Compile(input.references, options);
}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    const std::vector<ReferenceAttribute>& references,
    const GeoAlignOptions& options) {
  // The owning adapter. Its plan outlives the caller's references, so
  // it copies what the prepared set keeps reading: every aggregate
  // column, and every DM when the DMs already share one structure. Any
  // other DM is only read while Prepare scatters it onto the union
  // structure — the plan's own copy — so it is lent, not duplicated.
  const bool keep_dms = sparse::SharesOneStructure(references);
  std::vector<ReferenceAttributeView> views = BorrowReferences(references);
  uint64_t bytes_copied = 0;
  for (size_t k = 0; k < views.size(); ++k) {
    auto aggregates =
        std::make_shared<const linalg::Vector>(references[k].source_aggregates);
    bytes_copied += aggregates->size() * sizeof(double);
    views[k].source_aggregates = common::ColumnView(*aggregates);
    views[k].keepalive = std::move(aggregates);
    if (keep_dms) {
      const sparse::CsrMatrix& dm = references[k].disaggregation;
      bytes_copied += dm.row_ptr().size() * sizeof(size_t) +
                      dm.nnz() * (sizeof(size_t) + sizeof(double));
      views[k].disaggregation = dm;
    }
  }
  IngestBytesCopied().Add(bytes_copied);
  return Compile(std::move(views), options);
}

Result<CrosswalkPlan> CrosswalkPlan::Compile(
    std::vector<ReferenceAttributeView> references,
    const GeoAlignOptions& options) {
  GEOALIGN_TRACE_SPAN("compile");
  obs::Stopwatch compile_watch;
  // Same early validation (and messages) as the legacy per-call path.
  if (references.empty()) {
    return Status::InvalidArgument("GeoAlign: no reference attributes");
  }
  if (options.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      options.fallback_dm == nullptr) {
    return Status::InvalidArgument(
        "GeoAlign: kFallbackDm requires options.fallback_dm");
  }
  GEOALIGN_ASSIGN_OR_RETURN(
      sparse::PreparedReferenceSet prepared,
      sparse::PreparedReferenceSet::Prepare(std::move(references)));
  CrosswalkPlan plan(std::move(prepared), options);

  {
    // Eq. 15 design matrix: the same normalized columns the legacy
    // BuildNormalizedSystem assembles per call.
    GEOALIGN_TRACE_SPAN("compile.design");
    std::vector<linalg::Vector> cols;
    cols.reserve(plan.prepared_.size());
    for (size_t k = 0; k < plan.prepared_.size(); ++k) {
      cols.push_back(plan.prepared_.reference(k).normalized_aggregates);
    }
    plan.design_ = linalg::Matrix::FromColumns(cols);
  }
  if (plan.options_.solver == WeightSolver::kSimplex) {
    // SolveSimplexLeastSquares(a, b) is literally
    // SolveSimplexLsFromNormalEquations(a.Gram(), a.MatTVec(b), b·b),
    // so hoisting the Gram matrix reproduces the legacy bits exactly.
    GEOALIGN_TRACE_SPAN("compile.gram");
    plan.gram_ = plan.design_.Gram();
  }

  // The plan-compiled workspace spec: every scratch size an execute
  // needs, resolved once here so serving loops never re-derive it.
  plan.workspace_spec_.num_references = plan.prepared_.size();
  plan.workspace_spec_.fused = sparse::FusedWorkspace::ComputeSpec(
      *plan.prepared_.dms()[0], plan.prepared_.size());

  if (plan.options_.fallback_dm != nullptr) {
    // Snapshot the fallback DM so the plan owns everything it reads at
    // Execute time; a cached plan must not dangle on caller memory.
    plan.fallback_dm_ = std::make_shared<const sparse::CsrMatrix>(
        *plan.options_.fallback_dm);
    plan.options_.fallback_dm = plan.fallback_dm_.get();
    plan.fallback_shape_ok_ =
        plan.fallback_dm_->rows() == plan.prepared_.num_source() &&
        plan.fallback_dm_->cols() == plan.prepared_.num_target();
    if (plan.fallback_shape_ok_) {
      plan.fallback_row_sums_ = plan.fallback_dm_->RowSums();
    }
  }
  CompileCount().Add(1);
  CompileLatencyUs().Record(compile_watch.ElapsedMicros());
  return plan;
}

Result<linalg::Vector> CrosswalkPlan::SolveWeightsNormalized(
    const linalg::Vector& b_normalized) const {
  if (options_.solver == WeightSolver::kSimplex) {
    // Fast path bypasses SolveWeightsForDesign, so it carries its own
    // weight_solve span/counter.
    GEOALIGN_TRACE_SPAN("execute.weight_solve");
    WeightSolveCount(WeightSolver::kSimplex).Add(1);
    GEOALIGN_ASSIGN_OR_RETURN(
        linalg::SimplexLsSolution sol,
        linalg::SolveSimplexLsFromNormalEquations(
            gram_, design_.MatTVec(b_normalized),
            linalg::Dot(b_normalized, b_normalized),
            options_.solver_options));
    return sol.beta;
  }
  return internal::SolveWeightsForDesign(design_, b_normalized, options_);
}

Result<linalg::Vector> CrosswalkPlan::LearnWeights(
    common::ColumnView objective_source) const {
  if (objective_source.size() != prepared_.num_source()) {
    return Status::InvalidArgument(
        "CrosswalkPlan: objective length does not match source units");
  }
  GEOALIGN_ASSIGN_OR_RETURN(linalg::Vector b,
                            linalg::NormalizeByMax(objective_source));
  return SolveWeightsNormalized(b);
}

Result<CrosswalkResult> CrosswalkPlan::Execute(
    common::ColumnView objective_source, ExecuteOutput output) const {
  return ExecuteWith(objective_source, nullptr, output, nullptr);
}

Result<CrosswalkResult> CrosswalkPlan::ExecuteWith(
    common::ColumnView objective_source, common::ThreadPool* /*pool*/,
    ExecuteOutput output, ExecuteWorkspace* workspace) const {
  // A single execute is a width-1 panel, run inline.
  GEOALIGN_TRACE_SPAN("execute");
  ExecuteWorkspace local_workspace;
  std::optional<Result<CrosswalkResult>> result;
  std::optional<Result<CrosswalkResult>>* out = &result;
  ExecuteOnePanel(&objective_source, &out, 1,
                  workspace != nullptr ? workspace : &local_workspace, output);
  return std::move(*result);
}

size_t CrosswalkPlan::panel_width() const {
  // One shared-structure traversal serves the whole panel either way;
  // vector ISAs take wider panels to fill their lanes, the scalar
  // reference keeps the per-row working set smaller.
  return sparse::simd::ActiveIsa() == sparse::simd::Isa::kScalar ? 8 : 16;
}

void CrosswalkPlan::ExecutePanelWith(
    const common::ColumnView* objectives,
    std::optional<Result<CrosswalkResult>>* const* results, size_t count,
    ExecuteWorkspace* workspace) const {
  if (count == 0) return;
  ExecuteWorkspace local_workspace;
  ExecuteWorkspace* ws = workspace != nullptr ? workspace : &local_workspace;
  for (size_t base = 0; base < count; base += sparse::simd::kMaxPanelWidth) {
    ExecuteOnePanel(objectives + base, results + base,
                    std::min(sparse::simd::kMaxPanelWidth, count - base), ws,
                    ExecuteOutput::kAggregatesOnly);
  }
}

Result<std::vector<CrosswalkResult>> CrosswalkPlan::ExecuteMany(
    size_t count, const ColumnSource& column_source, common::ThreadPool* pool,
    ExecuteOutput output) const {
  obs::EnsureRequestScope ensure_request;
  // Pool workers have their own (empty) thread-local request context;
  // every group task re-establishes this token so each span and audit
  // record of the fan-out stays attributed to the request.
  const obs::RequestToken request = obs::CurrentRequest();
  GEOALIGN_TRACE_SPAN("realign.batch");
  ColumnsPerBatch().Record(static_cast<double>(count));
  ColumnsTotal().Add(count);
  if (count == 0) return std::vector<CrosswalkResult>{};

  const size_t width = std::min(panel_width(), count);
  const size_t num_groups = (count + width - 1) / width;
  const bool outer = pool != nullptr && pool->size() > 1 && num_groups > 1;

  // One slot per concurrently running group: inline groups share slot
  // 0, pool workers take their worker index + 1, so a workspace never
  // sees two concurrent executes. `columns` holds resolved columns
  // whose source has no caller memory to view.
  struct Slot {
    ExecuteWorkspace workspace;
    std::vector<linalg::Vector> columns;
  };
  std::vector<Slot> slots(outer ? pool->size() + 1 : 1);
  for (Slot& slot : slots) {
    slot.workspace.PreparePanel(workspace_spec_, width);
    slot.columns.resize(width);
  }

  std::vector<std::optional<Result<CrosswalkResult>>> results(count);
  common::ParallelForChunks(outer ? pool : nullptr, num_groups, [&](size_t g) {
    obs::RequestScope request_scope(request);
    obs::Stopwatch group_watch;
    const size_t wi = common::ThreadPool::CurrentWorkerIndex();
    Slot& slot =
        slots[!outer || wi == common::ThreadPool::kNoWorkerIndex ? 0 : wi + 1];
    std::array<common::ColumnView, sparse::simd::kMaxPanelWidth> views;
    std::array<std::optional<Result<CrosswalkResult>>*,
               sparse::simd::kMaxPanelWidth>
        outs;
    size_t n = 0;
    const size_t begin = g * width;
    for (size_t i = begin; i < std::min(count, begin + width); ++i) {
      Result<common::ColumnView> column =
          column_source(i, &slot.columns[i - begin]);
      if (!column.ok()) {
        results[i].emplace(column.status());
        continue;
      }
      views[n] = *column;
      outs[n++] = &results[i];
    }
    if (n == 0) return;
    ExecuteOnePanel(views.data(), outs.data(), n, &slot.workspace, output);
    // One sample per group: a group serves all its columns in one
    // traversal (docs/observability.md).
    RealignLatencyUs().Record(group_watch.ElapsedMicros());
  });

  std::vector<CrosswalkResult> out;
  out.reserve(count);
  for (std::optional<Result<CrosswalkResult>>& r : results) {
    if (!r->ok()) return r->status();
    out.push_back(std::move(*r).value());
  }
  return out;
}

void CrosswalkPlan::ExecuteOnePanel(
    const common::ColumnView* objectives,
    std::optional<Result<CrosswalkResult>>* const* results, size_t count,
    ExecuteWorkspace* ws, ExecuteOutput output) const {
  GEOALIGN_TRACE_SPAN("execute.panel");
  obs::Stopwatch execute_watch;
  const uint64_t allocs_before = ws->alloc_events();
  // The ISA (and with it the preferred panel width) is an execute-time
  // property — nothing about it is baked into the plan or its
  // fingerprint, so a plan cached under one ISA serves them all.
  const sparse::simd::Isa isa = sparse::simd::ActiveIsa();
  ws->PreparePanel(workspace_spec_, count);

  // Step 1 per column: weight learning (Eq. 15) stays scalar — lanes
  // are only ganged for the sparse traversal. A column whose solve
  // fails gets its error; the surviving lanes still share one panel.
  ExecuteWorkspace::PanelScratch& ps = ws->panel();
  ps.lanes.clear();
  for (size_t i = 0; i < count; ++i) {
    if (objectives[i].size() != prepared_.num_source()) {
      results[i]->emplace(Status::InvalidArgument(
          "CrosswalkPlan: objective length does not match source units"));
      continue;
    }
    Result<linalg::Vector> b = linalg::NormalizeByMax(objectives[i]);
    if (!b.ok()) {
      results[i]->emplace(b.status());
      continue;
    }
    Result<linalg::Vector> beta = SolveWeightsNormalized(b.value());
    if (!beta.ok()) {
      results[i]->emplace(beta.status());
      continue;
    }
    results[i]->emplace(CrosswalkResult{});
    CrosswalkResult& res = (*results[i])->value();
    res.weights = std::move(beta).value();
    ps.lanes.push_back(i);
  }
  const size_t width = ps.lanes.size();

  // One always-on flight-recorder audit record per panel, success or
  // failure (the panel is the execute unit; per-lane context lives in
  // results).
  obs::AuditRecord audit;
  audit.plan_fingerprint = prepared_.fingerprint();
  std::strncpy(audit.mode,
               output == ExecuteOutput::kFullDm ? "panel_dm" : "panel",
               sizeof(audit.mode) - 1);
  audit.panel_width = static_cast<uint32_t>(width);
  audit.isa = static_cast<uint32_t>(isa);
  audit.rows = prepared_.num_source();
  auto record_audit = [&](bool ok) {
    audit.ok = ok ? 1 : 0;
    audit.latency_us = static_cast<uint64_t>(execute_watch.ElapsedMicros());
    obs::FlightRecorder::Global().Record(audit);
  };
  if (width == 0) return record_audit(false);

  // Steps 2+3: one Eq. 14 + Eq. 17 panel pass. Lane-major effective
  // weights are the per-column β_k / normalizer_k divisions, verbatim.
  const size_t num_refs = prepared_.size();
  for (size_t mi = 0; mi < num_refs; ++mi) {
    double norm = options_.scale_mode == ScaleMode::kNormalized
                      ? prepared_.reference(mi).normalizer
                      : 1.0;
    for (size_t li = 0; li < width; ++li) {
      const CrosswalkResult& res = (*results[ps.lanes[li]])->value();
      ps.lane_weights[mi * width + li] = res.weights[mi] / norm;
    }
  }
  ps.row_scales.clear();
  ps.targets.clear();
  ps.zero_lists.clear();
  ps.dms.clear();
  for (size_t li = 0; li < width; ++li) {
    CrosswalkResult& res = (*results[ps.lanes[li]])->value();
    ps.row_scales.push_back(objectives[ps.lanes[li]]);
    ps.targets.push_back(&res.target_estimates);
    ps.zero_lists.push_back(&res.zero_rows);
    ps.dms.push_back(&res.estimated_dm);
  }
  ps.operand_aggregates.clear();
  sparse::FusedPanelInputs in;
  in.mats = &prepared_.dms();
  in.lane_weights = ps.lane_weights.data();
  in.width = width;
  in.row_scales = ps.row_scales.data();
  if (options_.denominator == DenominatorMode::kFromAggregates) {
    // The kernel derives each lane's denominators per row with the
    // operand-ascending accumulation of the legacy linalg::Axpy loop.
    for (size_t mi = 0; mi < num_refs; ++mi) {
      ps.operand_aggregates.push_back(
          prepared_.reference(mi).source_aggregates);
    }
    in.operand_aggregates = ps.operand_aggregates.data();
  }
  in.zero_tolerance = options_.zero_tolerance;
  const bool use_fallback =
      options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
      fallback_shape_ok_;
  in.fallback_dm = use_fallback ? fallback_dm_.get() : nullptr;
  in.fallback_row_sums = use_fallback ? &fallback_row_sums_ : nullptr;

  Status st = sparse::FusedAggregatesPanel(
      in, workspace_spec_.fused, isa, ps.targets.data(), ps.zero_lists.data(),
      &ws->fused(),
      output == ExecuteOutput::kFullDm ? ps.dms.data() : nullptr);

  if (!st.ok()) {
    for (size_t li = 0; li < width; ++li) results[ps.lanes[li]]->emplace(st);
    return record_audit(false);
  }
  for (size_t li = 0; li < width; ++li) {
    CrosswalkResult& res = (*results[ps.lanes[li]])->value();
    if (options_.zero_row_fallback == ZeroRowFallback::kFallbackDm &&
        !res.zero_rows.empty()) {
      if (!fallback_shape_ok_) {
        // Error parity with the legacy rebuild: exactly the columns
        // whose zero rows would have needed the bad-shape fallback
        // fail.
        results[ps.lanes[li]]->emplace(Status::InvalidArgument(
            "GeoAlign: fallback DM shape mismatch"));
        continue;
      }
      FallbackRebuilds().Add(1);
      ++audit.fallback;
    }
    audit.zero_rows += res.zero_rows.size();
    ZeroRowsTotal().Add(res.zero_rows.size());
    ExecuteCount().Add(1);
  }

  // Panel telemetry (observe-only): the dispatched ISA, the served
  // width, and the usual workspace health counters — one execute
  // latency per panel, not per column.
  ExecuteIsaGauge().Set(static_cast<int64_t>(isa));
  PanelWidthHist().Record(static_cast<double>(width));
  PanelCount().Add(1);
  const uint64_t grown = ws->alloc_events() - allocs_before;
  HotPathAllocs().Add(grown);
  if (grown == 0) WorkspaceReuse().Add(1);
  ExecuteLatencyUs().Record(execute_watch.ElapsedMicros());
  record_audit(true);
}

}  // namespace geoalign::core
