#include "core/pipeline.h"

#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace geoalign::core {

namespace {

// Serving-surface telemetry (catalog: docs/observability.md) for
// Realign and the per-call RealignMany path. The registry keys are
// shared with CrosswalkPlan::ExecuteMany so "realign.*" counts every
// realigned column regardless of entry point.
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

// Builds a name→index map, rejecting duplicates (a duplicate would
// silently shadow the earlier unit during column resolution).
Result<std::unordered_map<std::string, size_t>> BuildUnitIndex(
    const std::vector<std::string>& units, const char* which) {
  std::unordered_map<std::string, size_t> index;
  index.reserve(units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    auto [it, inserted] = index.emplace(units[i], i);
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument(
          std::string("CrosswalkPipeline: duplicate ") + which +
          " unit name '" + units[i] + "'");
    }
  }
  return index;
}

// The shape check shared by the owning and the view Create.
template <typename Reference>
Status ValidateShapes(const std::vector<std::string>& source_units,
                      const std::vector<std::string>& target_units,
                      const std::vector<Reference>& references) {
  if (source_units.empty() || target_units.empty()) {
    return Status::InvalidArgument("CrosswalkPipeline: empty unit lists");
  }
  if (references.empty()) {
    return Status::InvalidArgument("CrosswalkPipeline: no references");
  }
  for (const Reference& ref : references) {
    if (ref.source_aggregates.size() != source_units.size() ||
        ref.disaggregation.rows() != source_units.size() ||
        ref.disaggregation.cols() != target_units.size()) {
      return Status::InvalidArgument(
          "CrosswalkPipeline: reference '" + ref.name +
          "' does not match the unit lists");
    }
  }
  return Status::OK();
}

}  // namespace

CrosswalkPipeline::CrosswalkPipeline(
    std::vector<std::string> source_units,
    std::vector<std::string> target_units,
    std::shared_ptr<const Interpolator> method)
    : source_units_(std::move(source_units)),
      target_units_(std::move(target_units)),
      method_(std::move(method)) {}

Result<CrosswalkPipeline> CrosswalkPipeline::WithUnits(
    std::vector<std::string> source_units,
    std::vector<std::string> target_units,
    std::shared_ptr<const Interpolator> method) {
  if (method == nullptr) {
    method = std::make_shared<GeoAlign>();
  }
  CrosswalkPipeline pipeline(std::move(source_units), std::move(target_units),
                             std::move(method));
  GEOALIGN_ASSIGN_OR_RETURN(
      pipeline.source_index_,
      BuildUnitIndex(pipeline.source_units_, "source"));
  GEOALIGN_ASSIGN_OR_RETURN(
      pipeline.target_index_,
      BuildUnitIndex(pipeline.target_units_, "target"));
  return pipeline;
}

Result<CrosswalkPipeline> CrosswalkPipeline::Create(
    std::vector<std::string> source_units,
    std::vector<std::string> target_units,
    std::vector<ReferenceAttribute> references,
    std::shared_ptr<const Interpolator> method) {
  GEOALIGN_RETURN_IF_ERROR(
      ValidateShapes(source_units, target_units, references));
  GEOALIGN_ASSIGN_OR_RETURN(
      CrosswalkPipeline pipeline,
      WithUnits(std::move(source_units), std::move(target_units),
                std::move(method)));
  if (const auto* ga = dynamic_cast<const GeoAlign*>(pipeline.method_.get())) {
    // Compile step: the objective-independent work is hoisted into one
    // shared plan (which owns copies of what it reads) and a compile
    // error fails Create, as in the view Create.
    GEOALIGN_ASSIGN_OR_RETURN(
        CrosswalkPlan plan, CrosswalkPlan::Compile(references, ga->options()));
    pipeline.plan_ = std::make_shared<const CrosswalkPlan>(std::move(plan));
  } else {
    pipeline.references_ = std::move(references);
  }
  return pipeline;
}

Result<CrosswalkPipeline> CrosswalkPipeline::Create(
    std::vector<std::string> source_units,
    std::vector<std::string> target_units,
    std::vector<ReferenceAttributeView> references,
    std::shared_ptr<const Interpolator> method) {
  GEOALIGN_RETURN_IF_ERROR(
      ValidateShapes(source_units, target_units, references));
  GEOALIGN_ASSIGN_OR_RETURN(
      CrosswalkPipeline pipeline,
      WithUnits(std::move(source_units), std::move(target_units),
                std::move(method)));
  const auto* ga = dynamic_cast<const GeoAlign*>(pipeline.method_.get());
  if (ga == nullptr) {
    return Status::InvalidArgument(
        "CrosswalkPipeline: view-based Create requires a GeoAlign method");
  }
  GEOALIGN_ASSIGN_OR_RETURN(
      CrosswalkPlan plan,
      CrosswalkPlan::Compile(std::move(references), ga->options()));
  pipeline.plan_ = std::make_shared<const CrosswalkPlan>(std::move(plan));
  return pipeline;
}

Result<linalg::Vector> CrosswalkPipeline::ResolveColumn(
    const std::vector<std::pair<std::string, double>>& column,
    const std::vector<std::string>& units,
    const std::unordered_map<std::string, size_t>& index) {
  linalg::Vector out(units.size(), 0.0);
  for (size_t i = 0; i < column.size(); ++i) {
    const auto& [unit, value] = column[i];
    // Columns usually list units in universe order, so try position i
    // before hashing. Unit names are unique (Create rejects
    // duplicates), so a positional match is the index's answer too.
    size_t at = i;
    if (i >= units.size() || units[i] != unit) {
      auto it = index.find(unit);
      if (it == index.end()) {
        return Status::NotFound("CrosswalkPipeline: unknown unit '" + unit +
                                "'");
      }
      at = it->second;
    }
    out[at] += value;
  }
  return out;
}

Result<CrosswalkResult> CrosswalkPipeline::Realign(
    const std::vector<std::pair<std::string, double>>& objective) const {
  // Serving entry: make sure spans and audit records below carry a
  // request id even when the caller opened no RequestScope.
  obs::EnsureRequestScope ensure_request;
  GEOALIGN_TRACE_SPAN("realign");
  obs::Stopwatch realign_watch;
  ColumnsTotal().Add(1);
  struct LatencyRecorder {
    obs::Stopwatch& watch;
    ~LatencyRecorder() { RealignLatencyUs().Record(watch.ElapsedMicros()); }
  } recorder{realign_watch};
  GEOALIGN_ASSIGN_OR_RETURN(
      linalg::Vector objective_source,
      ResolveColumn(objective, source_units_, source_index_));
  if (plan_ != nullptr) {
    return plan_->Execute(objective_source);
  }
  CrosswalkInput input;
  input.objective_source = std::move(objective_source);
  input.references = references_;
  // Non-GeoAlign interpolators (baselines, custom methods) have no
  // compiled-plan form.
  return method_->Crosswalk(input);  // NOLINT(geoalign-plan-bypass)
}

Result<std::vector<CrosswalkResult>> CrosswalkPipeline::RealignMany(
    const std::vector<Column>& objectives, size_t threads,
    ExecuteOutput output) const {
  std::unique_ptr<common::ThreadPool> pool =
      common::MakePoolOrNull(common::ResolveThreadCount(threads));
  if (plan_ != nullptr) {
    // Serving path: the plan owns grouping, pool use, workspaces and
    // telemetry; each column is name-resolved inside its group's task.
    return plan_->ExecuteMany(
        objectives.size(),
        [&](size_t i, linalg::Vector* scratch) -> Result<common::ColumnView> {
          GEOALIGN_ASSIGN_OR_RETURN(
              *scratch,
              ResolveColumn(objectives[i], source_units_, source_index_));
          return common::ColumnView(*scratch);
        },
        pool.get(), output);
  }

  obs::EnsureRequestScope ensure_request;
  // Pool workers have their own (empty) thread-local request context;
  // each worker lambda below re-establishes this token so every span
  // and audit record of the fan-out stays attributed to the request.
  const obs::RequestToken request = obs::CurrentRequest();
  GEOALIGN_TRACE_SPAN("realign.batch");
  ColumnsPerBatch().Record(static_cast<double>(objectives.size()));
  ColumnsTotal().Add(objectives.size());

  std::vector<std::optional<Result<CrosswalkResult>>> results(
      objectives.size());
  common::ParallelForChunks(pool.get(), objectives.size(), [&](size_t i) {
    obs::RequestScope request_scope(request);
    obs::Stopwatch column_watch;
    CrosswalkInput input;
    Result<linalg::Vector> column =
        ResolveColumn(objectives[i], source_units_, source_index_);
    if (!column.ok()) {
      results[i].emplace(column.status());
      return;
    }
    input.objective_source = std::move(column).value();
    input.references = references_;
    // Per-call fallback for interpolators without a compiled-plan form
    // (see Realign).
    results[i].emplace(
        method_->Crosswalk(input));  // NOLINT(geoalign-plan-bypass)
    RealignLatencyUs().Record(column_watch.ElapsedMicros());
  });

  std::vector<CrosswalkResult> out;
  out.reserve(objectives.size());
  for (std::optional<Result<CrosswalkResult>>& r : results) {
    if (!r->ok()) return r->status();
    out.push_back(std::move(*r).value());
    if (output == ExecuteOutput::kAggregatesOnly) {
      // Per-call interpolators have no fused form; honor the requested
      // shape by dropping the materialized DM.
      out.back().estimated_dm = sparse::CsrMatrix();
    }
  }
  return out;
}

Result<std::vector<CrosswalkPipeline::JoinedRow>> CrosswalkPipeline::Join(
    const std::vector<std::pair<std::string, double>>& objective,
    const std::vector<std::pair<std::string, double>>& target_attribute)
    const {
  GEOALIGN_ASSIGN_OR_RETURN(CrosswalkResult realigned, Realign(objective));
  GEOALIGN_ASSIGN_OR_RETURN(
      linalg::Vector target_vals,
      ResolveColumn(target_attribute, target_units_, target_index_));
  std::vector<JoinedRow> rows;
  rows.reserve(target_units_.size());
  for (size_t j = 0; j < target_units_.size(); ++j) {
    rows.push_back(
        {target_units_[j], realigned.target_estimates[j], target_vals[j]});
  }
  return rows;
}

}  // namespace geoalign::core
