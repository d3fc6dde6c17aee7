// The four workloads (see ../README.md for why each exists and which
// layer metric should move which end-to-end metric). Each Run* sets up,
// runs its closed loop, checks every op and fills the report; each
// SelfTest* proves its check flags a deliberately corrupted output.
#ifndef GEOALIGN_PERFBENCH_WORKLOADS_H_
#define GEOALIGN_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/geoalign.h"
#include "synth/universe.h"

namespace perfbench {

void RunCli(const Args& args, Report* report);
void RunSingleShot(const Args& args, Report* report);
void RunPortal(const Args& args, Report* report);
void RunOverlay(const Args& args, Report* report);

bool SelfTestCli(const Args& args);
bool SelfTestSingleShot(const Args& args);
bool SelfTestPortal(const Args& args);
bool SelfTestOverlay(const Args& args);

/// The US universe (seed 2018) and its ten leave-one-out inputs, one
/// per held-out dataset (paper §4.3 / Fig. 6).
struct UsSuite {
  std::unique_ptr<geoalign::synth::Universe> universe;
  std::vector<geoalign::core::CrosswalkInput> loo;
};
UsSuite BuildUsSuite(double scale);

/// GeoAlign options of every workload: defaults, BenchThreads() threads.
geoalign::core::GeoAlignOptions BenchOptions();

/// Zero-padded unit names ("z000042"), so sorted order is index order.
std::vector<std::string> UnitNames(char prefix, size_t n);

/// Mean NRMSE of the ten US leave-one-out targets at scale 1.0 (seed
/// 2018), as GeoAlign computes it in-process and through the CLI. A
/// change that moves it by more than a relative 1e-6 fails the run, so
/// a faster path cannot silently trade accuracy.
inline constexpr double kPinnedUsLooNrmseMean = 0.09322383323290608;

/// Computed (not measured) bytes the Eq. 14/17 kernels must read or
/// write per objective column: every reference CSR (8-byte values and
/// column indices, row pointers) plus the objective and the estimates.
double ComputedBytesPerColumn(
    const std::vector<const geoalign::sparse::CsrMatrix*>& dms);

/// Checks the mean NRMSE against the pinned value (scale 1.0 only).
void CheckNrmse(const Args& args, double nrmse_mean, Report* report);

/// Runs `build` `reps` times, timing each, and keeps the last result.
/// Earlier results are destroyed before the next build starts, so peak
/// memory is that of one set-up.
template <class Build>
auto RepeatedSetup(size_t reps, std::vector<double>* seconds, Build&& build)
    -> decltype(build()) {
  std::optional<decltype(build())> kept;
  for (size_t r = 0; r < std::max<size_t>(reps, 1); ++r) {
    kept.reset();
    const double t0 = NowMs();
    kept.emplace(build());
    seconds->push_back((NowMs() - t0) / 1000.0);
  }
  return std::move(*kept);
}

}  // namespace perfbench

#endif  // GEOALIGN_PERFBENCH_WORKLOADS_H_
