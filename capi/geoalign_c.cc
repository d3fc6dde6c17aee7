// C ABI shim over the compiled-plan API (capi/geoalign_c.h,
// docs/embedding.md). Borrowed aggregate columns and CSR arrays flow
// through the view-based Compile without a single byte copied; COO
// input is converted through CooBuilder into plan-owned CSR arrays.
// Everything observable — target estimates, weights, fingerprints,
// error messages — is bit-identical to the C++ path, enforced by
// tests/capi_test.cc.

#include "capi/geoalign_c.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/crosswalk_plan.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sparse/coo_builder.h"
#include "sparse/csr_matrix.h"

// The opaque handle: a compiled plan. Borrowed caller buffers are
// referenced by the plan's prepared set; the caller keeps them alive
// until geoalign_plan_destroy (the documented ownership rule).
struct geoalign_plan {
  geoalign::core::CrosswalkPlan plan;
};

namespace {

using geoalign::Result;
using geoalign::Status;

thread_local std::string t_last_error;

int Fail(int code, std::string message) {
  t_last_error = std::move(message);
  return code;
}

int FailStatus(const Status& status) {
  return Fail(GEOALIGN_ERR_FAILED, std::string(status.message()));
}

// Builds the per-reference view list from the C structs. CSR input is
// borrowed (zero-copy); COO input is accumulated into an owned matrix.
Result<std::vector<geoalign::core::ReferenceAttributeView>> BuildViews(
    const geoalign_reference* references, size_t num_references) {
  std::vector<geoalign::core::ReferenceAttributeView> views;
  views.reserve(num_references);
  for (size_t k = 0; k < num_references; ++k) {
    const geoalign_reference& ref = references[k];
    if (ref.name == nullptr) {
      return Status::InvalidArgument("geoalign: reference name is NULL");
    }
    if (ref.source_aggregates == nullptr) {
      return Status::InvalidArgument(std::string("geoalign: reference '") +
                                     ref.name +
                                     "': source_aggregates is NULL");
    }
    if ((ref.csr == nullptr) == (ref.coo == nullptr)) {
      return Status::InvalidArgument(
          std::string("geoalign: reference '") + ref.name +
          "': exactly one of csr/coo must be set");
    }
    geoalign::core::ReferenceAttributeView view;
    view.name = ref.name;
    if (ref.csr != nullptr) {
      const geoalign_csr& csr = *ref.csr;
      if (csr.row_ptr == nullptr ||
          (csr.rows > 0 && csr.row_ptr[csr.rows] > 0 &&
           (csr.col_idx == nullptr || csr.values == nullptr))) {
        return Status::InvalidArgument(std::string("geoalign: reference '") +
                                       ref.name + "': NULL CSR array");
      }
      geoalign::sparse::CsrView cv;
      cv.rows = csr.rows;
      cv.cols = csr.cols;
      cv.row_ptr = geoalign::common::ConstSpan<size_t>(csr.row_ptr,
                                                       csr.rows + 1);
      const size_t nnz = csr.row_ptr[csr.rows];
      cv.col_idx = geoalign::common::ConstSpan<size_t>(csr.col_idx, nnz);
      cv.values = geoalign::common::ConstSpan<double>(csr.values, nnz);
      GEOALIGN_ASSIGN_OR_RETURN(
          view.disaggregation,
          geoalign::sparse::CsrMatrix::FromBorrowed(cv));
      view.source_aggregates =
          geoalign::common::ColumnView(ref.source_aggregates, csr.rows);
    } else {
      if (ref.coo_count > 0 && ref.coo == nullptr) {
        return Status::InvalidArgument(std::string("geoalign: reference '") +
                                       ref.name + "': NULL COO array");
      }
      geoalign::sparse::CooBuilder builder(ref.coo_rows, ref.coo_cols);
      for (size_t i = 0; i < ref.coo_count; ++i) {
        const geoalign_coo_entry& e = ref.coo[i];
        if (e.row >= ref.coo_rows || e.col >= ref.coo_cols) {
          return Status::InvalidArgument(
              std::string("geoalign: reference '") + ref.name +
              "': COO entry out of range");
        }
        builder.Add(e.row, e.col, e.value);
      }
      view.disaggregation = builder.Build();
      view.source_aggregates =
          geoalign::common::ColumnView(ref.source_aggregates, ref.coo_rows);
    }
    // CrosswalkInput::Validate's per-reference checks and messages; the
    // C API has no objective at compile time.
    GEOALIGN_RETURN_IF_ERROR(geoalign::core::ValidateReference(
        view.name, view.source_aggregates, view.disaggregation));
    views.push_back(std::move(view));
  }
  return views;
}

}  // namespace

extern "C" {

uint32_t geoalign_abi_version(void) { return GEOALIGN_ABI_VERSION; }

int geoalign_plan_compile(const geoalign_reference* references,
                          size_t num_references, geoalign_plan** out_plan) {
  if (out_plan == nullptr) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT,
                "geoalign: out_plan is NULL");
  }
  *out_plan = nullptr;
  if (references == nullptr || num_references == 0) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT,
                "geoalign: no reference attributes");
  }
  try {
    Result<std::vector<geoalign::core::ReferenceAttributeView>> views =
        BuildViews(references, num_references);
    if (!views.ok()) {
      const int code =
          views.status().code() == geoalign::StatusCode::kInvalidArgument
              ? GEOALIGN_ERR_INVALID_ARGUMENT
              : GEOALIGN_ERR_FAILED;
      return Fail(code, std::string(views.status().message()));
    }
    Result<geoalign::core::CrosswalkPlan> plan =
        geoalign::core::CrosswalkPlan::Compile(
            std::move(views).value(), geoalign::core::GeoAlignOptions{});
    if (!plan.ok()) return FailStatus(plan.status());
    *out_plan = new geoalign_plan{std::move(plan).value()};
    return GEOALIGN_OK;
  } catch (const std::exception& e) {
    return Fail(GEOALIGN_ERR_FAILED, e.what());
  }
}

int geoalign_plan_execute(const geoalign_plan* plan, const double* objective,
                          size_t objective_len, double* out_target,
                          double* out_weights) {
  if (plan == nullptr) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT, "geoalign: plan is NULL");
  }
  if (objective == nullptr && objective_len > 0) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT,
                "geoalign: objective is NULL");
  }
  if (out_target == nullptr) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT,
                "geoalign: out_target is NULL");
  }
  try {
    // Aggregates only: never materializes the estimated DM; the
    // estimates carry the kFullDm bits.
    Result<geoalign::core::CrosswalkResult> result = plan->plan.Execute(
        geoalign::common::ColumnView(objective, objective_len),
        geoalign::core::ExecuteOutput::kAggregatesOnly);
    if (!result.ok()) return FailStatus(result.status());
    const geoalign::core::CrosswalkResult& res = result.value();
    std::memcpy(out_target, res.target_estimates.data(),
                res.target_estimates.size() * sizeof(double));
    if (out_weights != nullptr) {
      std::memcpy(out_weights, res.weights.data(),
                  res.weights.size() * sizeof(double));
    }
    return GEOALIGN_OK;
  } catch (const std::exception& e) {
    return Fail(GEOALIGN_ERR_FAILED, e.what());
  }
}

size_t geoalign_plan_num_source_units(const geoalign_plan* plan) {
  return plan == nullptr ? 0 : plan->plan.num_source_units();
}

size_t geoalign_plan_num_target_units(const geoalign_plan* plan) {
  return plan == nullptr ? 0 : plan->plan.num_target_units();
}

size_t geoalign_plan_num_references(const geoalign_plan* plan) {
  return plan == nullptr ? 0 : plan->plan.references().size();
}

uint64_t geoalign_plan_fingerprint(const geoalign_plan* plan) {
  return plan == nullptr ? 0 : plan->plan.fingerprint();
}

void geoalign_plan_destroy(geoalign_plan* plan) { delete plan; }

const char* geoalign_error_message(void) { return t_last_error.c_str(); }

int geoalign_metrics_export(int format, char** out_data, size_t* out_len) {
  if (out_data == nullptr) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT, "geoalign: out_data is NULL");
  }
  *out_data = nullptr;
  if (out_len != nullptr) *out_len = 0;
  geoalign::obs::MetricsFormat fmt;
  switch (format) {
    case GEOALIGN_METRICS_FORMAT_PROMETHEUS:
      fmt = geoalign::obs::MetricsFormat::kPrometheus;
      break;
    case GEOALIGN_METRICS_FORMAT_JSON:
      fmt = geoalign::obs::MetricsFormat::kJson;
      break;
    case GEOALIGN_METRICS_FORMAT_TEXT:
      fmt = geoalign::obs::MetricsFormat::kText;
      break;
    default:
      return Fail(GEOALIGN_ERR_INVALID_ARGUMENT,
                  "geoalign: unknown metrics format");
  }
  try {
    const std::string rendered = geoalign::obs::FormatMetricsSnapshot(
        geoalign::obs::MetricsRegistry::Global().Snapshot(), fmt);
    char* buffer = static_cast<char*>(std::malloc(rendered.size() + 1));
    if (buffer == nullptr) {
      return Fail(GEOALIGN_ERR_FAILED, "geoalign: out of memory");
    }
    std::memcpy(buffer, rendered.c_str(), rendered.size() + 1);
    *out_data = buffer;
    if (out_len != nullptr) *out_len = rendered.size();
    return GEOALIGN_OK;
  } catch (const std::exception& e) {
    return Fail(GEOALIGN_ERR_FAILED, e.what());
  }
}

void geoalign_buffer_free(char* data) { std::free(data); }

int geoalign_flight_recorder_dump(const char* path) {
  if (path == nullptr) {
    return Fail(GEOALIGN_ERR_INVALID_ARGUMENT, "geoalign: path is NULL");
  }
  try {
    std::string error;
    if (!geoalign::obs::FlightRecorder::Global().DumpToFile(path, "demand",
                                                            &error)) {
      return Fail(GEOALIGN_ERR_FAILED, "geoalign: " + error);
    }
    return GEOALIGN_OK;
  } catch (const std::exception& e) {
    return Fail(GEOALIGN_ERR_FAILED, e.what());
  }
}

}  // extern "C"
