// portal_unaligned: one CrosswalkPipeline over a US leave-one-out
// reference set (nine unaligned references), created in set-up. Each
// op is RealignMany of 256 string-keyed columns, aggregates only, so
// the time goes to ResolveColumn, the Eq. 14/17 kernels and the pool.
#include <cmath>
#include <unordered_map>

#include "checks.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace core = geoalign::core;
namespace obs = geoalign::obs;
using geoalign::linalg::Vector;

namespace {

constexpr size_t kColumns = 256;
// The held-out dataset whose nine companions form the reference set.
constexpr const char* kHeldOut = "Population";

struct Portal {
  UsSuite suite;
  std::vector<std::string> sources;
  std::vector<core::CrosswalkPipeline::Column> columns;
  std::optional<core::CrosswalkPipeline> pipeline;
  double create_ms = 0.0;
};

// Column b is dataset (b mod 10)'s zip aggregates, each entry scaled by
// a seeded factor in [0.9, 1.1], keyed by zip name.
std::vector<core::CrosswalkPipeline::Column> MakeColumns(
    const UsSuite& suite, const std::vector<std::string>& sources,
    size_t count, uint64_t seed) {
  const auto& datasets = suite.universe->datasets;
  std::vector<core::CrosswalkPipeline::Column> columns(count);
  for (size_t b = 0; b < count; ++b) {
    geoalign::Rng rng(seed, /*stream=*/b + 1);
    const Vector& base = datasets[b % datasets.size()].source;
    columns[b].reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      columns[b].emplace_back(sources[i], base[i] * rng.Uniform(0.9, 1.1));
    }
  }
  return columns;
}

Portal BuildPortal(const Args& args) {
  Portal p;
  p.suite = BuildUsSuite(args.scale);
  const size_t held_out =
      p.suite.universe->FindDataset(kHeldOut).ValueOrDie();
  p.sources = UnitNames('z', p.suite.universe->NumZips());
  p.columns = MakeColumns(p.suite, p.sources, kColumns, args.seed);
  std::vector<core::ReferenceAttribute> refs =
      p.suite.loo[held_out].references;
  std::vector<std::string> sources = p.sources;
  std::vector<std::string> targets =
      UnitNames('c', p.suite.universe->NumCounties());
  p.create_ms = TimedMs("pipeline.create", [&] {
    p.pipeline.emplace(
        core::CrosswalkPipeline::Create(
            std::move(sources), std::move(targets), std::move(refs),
            std::make_shared<core::GeoAlign>(BenchOptions()))
            .ValueOrDie());
  });
  return p;
}

std::vector<core::CrosswalkResult> RealignAll(const Portal& p,
                                              size_t threads) {
  return p.pipeline
      ->RealignMany(p.columns, threads, core::ExecuteOutput::kAggregatesOnly)
      .ValueOrDie();
}

// The plan executes of RealignMany without its name resolution: the
// columns resolved up front, then ExecuteWith(kAggregatesOnly) on an
// equal pool with one workspace per worker slot.
std::vector<core::CrosswalkResult> ExecuteOnly(
    const core::CrosswalkPlan& plan, const std::vector<Vector>& resolved) {
  std::unique_ptr<geoalign::common::ThreadPool> pool =
      geoalign::common::MakePoolOrNull(BenchThreads());
  std::vector<core::ExecuteWorkspace> bank(pool ? pool->size() + 1 : 1);
  for (core::ExecuteWorkspace& ws : bank) {
    ws.Prepare(plan.workspace_spec(), /*slots=*/1);
  }
  std::vector<core::CrosswalkResult> out(resolved.size());
  geoalign::common::ParallelForChunks(
      pool.get(), resolved.size(), [&](size_t i) {
        size_t wi = geoalign::common::ThreadPool::CurrentWorkerIndex();
        core::ExecuteWorkspace& ws =
            bank[wi == geoalign::common::ThreadPool::kNoWorkerIndex ? 0
                                                                     : wi + 1];
        out[i] = plan.ExecuteWith(resolved[i], nullptr,
                                  core::ExecuteOutput::kAggregatesOnly, &ws)
                     .ValueOrDie();
      });
  return out;
}

void ProbeLayers(const Portal& p, const std::vector<double>& create_ms,
                 const std::vector<Vector>& oracle, Report* report) {
  const core::CrosswalkPlan& plan = *p.pipeline->plan();
  const double columns = static_cast<double>(p.columns.size());
  obs::Counter& busy =
      obs::MetricsRegistry::Global().GetCounter("thread_pool.busy_micros");

  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < p.sources.size(); ++i) index.emplace(p.sources[i], i);
  std::vector<Vector> resolved;
  for (const auto& column : p.columns) {
    Vector v(p.sources.size(), 0.0);
    for (const auto& [unit, value] : column) v[index.at(unit)] += value;
    resolved.push_back(std::move(v));
  }

  constexpr size_t kReps = 3;
  std::vector<double> realign_ms, execute_ms, serial_ms;
  double busy_us = 0.0, wall_ms = 0.0;
  for (size_t r = 0; r < kReps; ++r) {
    const uint64_t busy0 = busy.Value();
    realign_ms.push_back(TimedMs("pipeline.realign_many", [&] {
      RealignAll(p, BenchThreads());
    }));
    busy_us += static_cast<double>(busy.Value() - busy0);
    wall_ms += realign_ms.back();
    std::vector<core::CrosswalkResult> direct;
    execute_ms.push_back(TimedMs("pipeline.execute_only", [&] {
      direct = ExecuteOnly(plan, resolved);
    }));
    if (!CheckExactBits(direct, oracle).ok) {
      report->Fail("pre-resolved ExecuteWith differs from Realign bits");
    }
  }
  for (size_t r = 0; r < 2; ++r) {
    serial_ms.push_back(TimedMs("pipeline.realign_many_1thread", [&] {
      RealignAll(p, 1);
    }));
  }
  const double threads = static_cast<double>(BenchThreads());
  const double realign = Median(realign_ms) / columns;
  const double execute = Median(execute_ms) / columns;
  report->Layer("pipeline.create_ms", Median(create_ms), "ms");
  report->Layer("pipeline.realign_ms_per_column", realign, "ms");
  report->Layer("pipeline.execute_only_ms_per_column", execute, "ms");
  report->Layer("pipeline.resolve_overhead_ratio", realign / execute, "ratio");
  report->Layer("common.parallel_efficiency",
                Median(serial_ms) / (threads * Median(realign_ms)), "ratio");
  // A 1-thread "pool" runs inline and books no busy time.
  report->Layer("common.thread_pool_busy_ratio",
                threads > 1 ? busy_us / (wall_ms * 1000.0 * threads) : 1.0,
                "ratio");
  size_t nnz = 0;
  for (const auto* dm : plan.references().dms()) nnz += dm->nnz();
  report->Layer("sparse.ref_nnz", static_cast<double>(nnz), "count");
  report->Layer("sparse.computed_bytes_per_column",
                ComputedBytesPerColumn(plan.references().dms()), "bytes");
}

// Per-column Realign results: the exact bits every op must reproduce.
std::vector<Vector> RealignOracle(const Portal& p) {
  std::vector<Vector> oracle;
  for (const auto& column : p.columns) {
    oracle.push_back(p.pipeline->Realign(column).ValueOrDie().target_estimates);
  }
  return oracle;
}

}  // namespace

void RunPortal(const Args& args, Report* report) {
  std::vector<double> setup_s, create_ms;
  Portal p = RepeatedSetup(args.setup_reps, &setup_s, [&] {
    Portal built = BuildPortal(args);
    create_ms.push_back(built.create_ms);
    return built;
  });
  if (p.pipeline->plan() == nullptr) {
    report->Fail("the pipeline compiled no plan");
    return;
  }
  const bool aligned = p.pipeline->plan()->references().aligned();
  report->Env("zips", static_cast<double>(p.sources.size()));
  report->Env("counties",
              static_cast<double>(p.pipeline->target_units().size()));
  report->Env("columns_per_op", static_cast<double>(p.columns.size()));
  report->Env("core.lane_aligned", aligned ? 1.0 : 0.0);
  size_t nnz = 0;
  for (const auto* dm : p.pipeline->plan()->references().dms()) {
    nnz += dm->nnz();
  }
  report->Env("ref_nnz", static_cast<double>(nnz));
  const std::vector<Vector> oracle = RealignOracle(p);

  std::vector<core::CrosswalkResult> last;
  double max_rel_err = 0.0;
  auto op = [&](size_t) { last = RealignAll(p, BenchThreads()); };
  auto check = [&](size_t) {
    CheckResult c = CheckExactBits(last, oracle);
    max_rel_err = std::max(max_rel_err, c.max_rel_err);
    if (!c.ok) report->Fail(c.why);
    return c.ok;
  };
  op(0);  // warm-up
  if (!check(0)) report->CountOps(0, 1);

  LoopResult loop = MeasureOps(args, 30, setup_s, op, check,
                               [&](const LoopResult&) {
                                 ProbeLayers(p, create_ms, oracle, report);
                                 report->Layer("core.lane_aligned",
                                               aligned ? 1.0 : 0.0, "count");
                               },
                               report);
  report->Extra("columns_per_s",
                static_cast<double>(loop.op_ms.size() * p.columns.size()) /
                    loop.wall_s,
                "1/s");
  report->Extra("max_rel_err", max_rel_err, "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(false), "MB");
}

bool SelfTestPortal(const Args& args) {
  Portal p = BuildPortal(args);
  const std::vector<Vector> oracle = RealignOracle(p);
  std::vector<core::CrosswalkResult> got = RealignAll(p, BenchThreads());
  const bool clean = CheckExactBits(got, oracle).ok;
  // Flip the lowest mantissa bit of one estimate: exact-bit comparison
  // must flag it.
  bool flagged = false;
  for (auto& r : got) {
    for (double& v : r.target_estimates) {
      if (v != 0.0) {
        v = std::nextafter(v, 2.0 * v);
        flagged = !CheckExactBits(got, oracle).ok;
        break;
      }
    }
    if (flagged) break;
  }
  std::fprintf(stderr, "self-test portal_unaligned: clean %s, corrupted %s\n",
               clean ? "passes" : "FAILS", flagged ? "flagged" : "NOT FLAGGED");
  return clean && flagged;
}

}  // namespace perfbench
