// single_shot_loo: GeoAlign::Crosswalk (full DM̂ output, the Fig. 6
// operation) cycling over the ten prebuilt US leave-one-out inputs.
// Compile dominates each op; there is no io and no name resolution.
#include <cstring>

#include "checks.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "sparse/prepared_reference.h"
#include "workloads.h"

namespace perfbench {

namespace core = geoalign::core;
namespace obs = geoalign::obs;

namespace {

// Crosswalk on LOO input t, checked for Eq. 16 and for run-to-run bit
// identity with the first result of the same target.
class SingleShot {
 public:
  SingleShot(const UsSuite& suite, const core::GeoAlign& geoalign)
      : suite_(suite), geoalign_(geoalign), first_(suite.loo.size()) {}

  void Run(size_t t) {
    last_t_ = t;
    auto r = geoalign_.Crosswalk(suite_.loo[t]);
    ok_ = r.ok();
    if (ok_) last_ = std::move(r).value();
  }

  CheckResult Check() {
    CheckResult c;
    if (!ok_) {
      c.ok = false;
      c.why = "Crosswalk returned an error";
      return c;
    }
    c = CheckVolumePreservation(last_, suite_.loo[last_t_].objective_source);
    max_rel_err_ = std::max(max_rel_err_, c.max_rel_err);
    std::optional<geoalign::linalg::Vector>& first = first_[last_t_];
    const geoalign::linalg::Vector& est = last_.target_estimates;
    if (!first) {
      first = est;
    } else if (first->size() != est.size() ||
               std::memcmp(first->data(), est.data(),
                           est.size() * sizeof(double)) != 0) {
      c.ok = false;
      c.why = "repeat crosswalk of one input changed its bits";
    }
    return c;
  }

  double MaxRelErr() const { return max_rel_err_; }

  double NrmseMean() const {
    double sum = 0.0;
    size_t n = 0;
    for (size_t t = 0; t < first_.size(); ++t) {
      if (!first_[t]) continue;
      sum += geoalign::eval::Nrmse(*first_[t],
                                   suite_.universe->datasets[t].target);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  core::CrosswalkResult& last() { return last_; }

 private:
  const UsSuite& suite_;
  const core::GeoAlign& geoalign_;
  std::vector<std::optional<geoalign::linalg::Vector>> first_;
  core::CrosswalkResult last_;
  size_t last_t_ = 0;
  bool ok_ = false;
  double max_rel_err_ = 0.0;
};

size_t TotalNnz(const core::CrosswalkInput& input) {
  size_t nnz = 0;
  for (const auto& ref : input.references) nnz += ref.disaggregation.nnz();
  return nnz;
}

double BytesPerColumn(const core::CrosswalkInput& input) {
  std::vector<const geoalign::sparse::CsrMatrix*> dms;
  for (const auto& ref : input.references) dms.push_back(&ref.disaggregation);
  return ComputedBytesPerColumn(dms);
}

// The traced run's layer probes: each public call of a crosswalk,
// timed separately on the same inputs, twice around the ten targets.
void ProbeLayers(const UsSuite& suite, const core::GeoAlign& geoalign,
                 const std::vector<size_t>& order, Report* report) {
  obs::Counter& simplex_iters =
      obs::MetricsRegistry::Global().GetCounter("solver.simplex.iterations");
  obs::Counter& hot_allocs =
      obs::MetricsRegistry::Global().GetCounter("execute.hot_path_allocs");
  std::vector<double> compile, prepare, exec_dm, exec_agg, learn, other;
  std::vector<double> iters, allocs;
  for (size_t i = 0; i < 2 * order.size(); ++i) {
    const size_t t = order[i % order.size()];
    const core::CrosswalkInput& input = suite.loo[t];
    const uint64_t iters0 = simplex_iters.Value();
    const uint64_t allocs0 = hot_allocs.Value();
    double crosswalk_ms = TimedMs("core.crosswalk", [&] {
      geoalign.Crosswalk(input).status().CheckOK();
    });
    iters.push_back(static_cast<double>(simplex_iters.Value() - iters0));
    allocs.push_back(static_cast<double>(hot_allocs.Value() - allocs0));

    std::vector<geoalign::sparse::ReferenceData> data;
    for (const auto& ref : input.references) {
      data.push_back({ref.name, ref.source_aggregates, ref.disaggregation});
    }
    prepare.push_back(TimedMs("sparse.prepare", [&] {
      geoalign::sparse::PreparedReferenceSet::Prepare(std::move(data))
          .status()
          .CheckOK();
    }));

    std::optional<core::CrosswalkPlan> plan;
    compile.push_back(TimedMs("core.compile", [&] {
      plan.emplace(geoalign.Compile(input).ValueOrDie());
    }));
    exec_dm.push_back(TimedMs("core.execute_dm", [&] {
      plan->Execute(input.objective_source).status().CheckOK();
    }));
    exec_agg.push_back(TimedMs("core.execute_agg", [&] {
      plan->Execute(input.objective_source,
                    core::ExecuteOutput::kAggregatesOnly)
          .status()
          .CheckOK();
    }));
    learn.push_back(TimedMs("linalg.learn_weights", [&] {
      plan->LearnWeights(input.objective_source).status().CheckOK();
    }));
    other.push_back(crosswalk_ms - compile.back() - exec_dm.back());
  }
  double nnz = 0.0, bytes = 0.0;
  for (const auto& input : suite.loo) {
    nnz += static_cast<double>(TotalNnz(input));
    bytes += BytesPerColumn(input);
  }
  const double n = static_cast<double>(suite.loo.size());
  report->Layer("core.compile_ms", Median(compile), "ms");
  report->Layer("sparse.prepare_ms", Median(prepare), "ms");
  report->Layer("core.execute_dm_ms", Median(exec_dm), "ms");
  report->Layer("core.execute_agg_ms", Median(exec_agg), "ms");
  report->Layer("linalg.learn_weights_ms", Median(learn), "ms");
  report->Layer("core.crosswalk_other_ms", Median(other), "ms");
  report->Layer("sparse.ref_nnz", nnz / n, "count");
  report->Layer("sparse.computed_bytes_per_column", bytes / n, "bytes");
  report->Layer("linalg.simplex_iterations", Median(iters), "count");
  report->Layer("execute.hot_path_allocs", Median(allocs), "count");
}

}  // namespace

void RunSingleShot(const Args& args, Report* report) {
  std::vector<double> setup_s;
  UsSuite suite = RepeatedSetup(args.setup_reps, &setup_s,
                                [&] { return BuildUsSuite(args.scale); });
  const core::GeoAlign geoalign(BenchOptions());
  const std::vector<size_t> order = SeededOrder(suite.loo.size(), args.seed);
  report->Env("zips", static_cast<double>(suite.universe->NumZips()));
  report->Env("counties", static_cast<double>(suite.universe->NumCounties()));
  double nnz = 0.0;
  for (const auto& input : suite.loo) {
    nnz += static_cast<double>(TotalNnz(input));
  }
  report->Env("ref_nnz_mean", nnz / static_cast<double>(suite.loo.size()));
  size_t aligned = 0;
  for (const auto& input : suite.loo) {
    aligned += geoalign.Compile(input).ValueOrDie().references().aligned();
  }
  report->Env("core.lane_aligned", static_cast<double>(aligned));

  SingleShot shot(suite, geoalign);
  auto op = [&](size_t i) { shot.Run(order[i % order.size()]); };
  auto check = [&](size_t) {
    CheckResult c = shot.Check();
    if (!c.ok) report->Fail(c.why);
    return c.ok;
  };
  // Warm-up: one crosswalk per target (also fills the bit baselines).
  for (size_t t = 0; t < order.size(); ++t) {
    op(t);
    if (!check(t)) report->CountOps(0, 1);
  }

  LoopResult loop = MeasureOps(args, 30, setup_s, op, check,
                               [&](const LoopResult&) {
                                 ProbeLayers(suite, geoalign, order, report);
                                 report->Layer("core.lane_aligned",
                                               static_cast<double>(aligned),
                                               "count");
                               },
                               report);
  report->Extra("columns_per_s",
                static_cast<double>(loop.op_ms.size()) / loop.wall_s, "1/s");
  report->Extra("max_rel_err", shot.MaxRelErr(), "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(false), "MB");
  CheckNrmse(args, shot.NrmseMean(), report);
}

bool SelfTestSingleShot(const Args& args) {
  UsSuite suite = BuildUsSuite(args.scale);
  const core::GeoAlign geoalign(BenchOptions());
  SingleShot shot(suite, geoalign);
  shot.Run(0);
  const bool clean = shot.Check().ok;
  // Corrupt one estimated DM entry: its row no longer sums to the
  // objective, so Eq. 16 must flag the op.
  shot.Run(0);
  std::vector<double>& values = shot.last().estimated_dm.mutable_values();
  bool flagged = false;
  if (!values.empty()) {
    values[values.size() / 2] *= 1.0 + 1e-6;
    flagged = !shot.Check().ok;
  }
  std::fprintf(stderr, "self-test single_shot_loo: clean %s, corrupted %s\n",
               clean ? "passes" : "FAILS", flagged ? "flagged" : "NOT FLAGGED");
  return clean && flagged;
}

}  // namespace perfbench
