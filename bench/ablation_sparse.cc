// Ablation over the disaggregation-matrix representation (paper §4.3
// attributes its per-dataset runtime variance to DM sparsity in
// SciPy): compares the CSR weighted-sum/row-scale pipeline against an
// equivalent dense-matrix implementation across universe sizes, and
// reports the DM fill ratios that make the sparse path mandatory at
// US scale.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/geoalign.h"
#include "linalg/matrix.h"
#include "oracles/sparse_oracle.h"
#include "sparse/sparse_ops.h"

namespace geoalign {
namespace {

// Dense re-implementation of GeoAlign's disaggregation step (Eq. 14):
// weighted sum of dense DMs, then row scaling.
linalg::Vector DenseDisaggregate(
    const std::vector<linalg::Matrix>& dms, const linalg::Vector& weights,
    const linalg::Vector& objective) {
  size_t rows = dms[0].rows();
  size_t cols = dms[0].cols();
  linalg::Matrix acc(rows, cols);
  for (size_t k = 0; k < dms.size(); ++k) {
    double w = weights[k];
    const std::vector<double>& src = dms[k].data();
    std::vector<double>& dst = acc.data();
    for (size_t i = 0; i < dst.size(); ++i) dst[i] += w * src[i];
  }
  linalg::Vector estimates(cols, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    double denom = 0.0;
    for (size_t c = 0; c < cols; ++c) denom += acc(r, c);
    if (denom == 0.0) continue;
    double scale = objective[r] / denom;
    for (size_t c = 0; c < cols; ++c) estimates[c] += acc(r, c) * scale;
  }
  return estimates;
}

void BM_DisaggregationSparse(benchmark::State& state, synth::UniverseId id) {
  const synth::Universe& uni =
      bench::GetUniverse(id, synth::SuiteKind::kUnitedStates);
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  std::vector<const sparse::CsrMatrix*> dms;
  linalg::Vector weights;
  for (const auto& ref : input.references) {
    dms.push_back(&ref.disaggregation);
    weights.push_back(1.0 / static_cast<double>(input.references.size()));
  }
  for (auto _ : state) {
    auto sum = std::move(sparse::WeightedSum(dms, weights)).ValueOrDie();
    linalg::Vector denom = sum.RowSums();
    std::vector<size_t> zero_rows;
    sparse::DivideRowsOrZero(sum, denom, 0.0, &zero_rows);
    sum.ScaleRows(input.objective_source);
    benchmark::DoNotOptimize(sum.ColSums());
  }
  double nnz = 0.0;
  for (const auto* dm : dms) nnz += static_cast<double>(dm->nnz());
  state.counters["fill"] =
      nnz / (static_cast<double>(dms.size()) * uni.NumZips() *
             uni.NumCounties());
}

void BM_DisaggregationDense(benchmark::State& state, synth::UniverseId id) {
  const synth::Universe& uni =
      bench::GetUniverse(id, synth::SuiteKind::kUnitedStates);
  auto input = std::move(uni.MakeLeaveOneOutInput(0)).ValueOrDie();
  std::vector<linalg::Matrix> dms;
  linalg::Vector weights;
  for (const auto& ref : input.references) {
    dms.push_back(ref.disaggregation.ToDense());
    weights.push_back(1.0 / static_cast<double>(input.references.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DenseDisaggregate(dms, weights, input.objective_source));
  }
}

}  // namespace
}  // namespace geoalign

int main(int argc, char** argv) {
  using geoalign::synth::UniverseId;
  // Dense representations of the US-scale DMs would need
  // 30k x 3k x 9 doubles (~6.5 GB); the dense arm therefore stops at
  // the Northeast universe — which is itself the point of the ablation.
  struct Config {
    UniverseId id;
    bool dense_feasible;
  };
  const Config configs[] = {
      {UniverseId::kNewYork, true},
      {UniverseId::kMidAtlantic, true},
      {UniverseId::kNortheast, true},
      {UniverseId::kUnitedStates, false},
  };
  for (const Config& c : configs) {
    std::string sparse_name = std::string("Disaggregation/sparse/") +
                              geoalign::synth::UniverseName(c.id);
    benchmark::RegisterBenchmark(sparse_name.c_str(),
                                 [id = c.id](benchmark::State& s) {
                                   geoalign::BM_DisaggregationSparse(s, id);
                                 })
        ->Unit(benchmark::kMillisecond);
    if (c.dense_feasible) {
      std::string dense_name = std::string("Disaggregation/dense/") +
                               geoalign::synth::UniverseName(c.id);
      benchmark::RegisterBenchmark(dense_name.c_str(),
                                   [id = c.id](benchmark::State& s) {
                                     geoalign::BM_DisaggregationDense(s, id);
                                   })
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
