// Shared plumbing of the repository benchmark: arguments, the timed
// closed loop, order statistics, bench-side spans, the run environment
// and the report writer. Workloads live in workload_*.cc.
#ifndef GEOALIGN_PERFBENCH_COMMON_H_
#define GEOALIGN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Universe scale (1.0 = US scale; --smoke uses a small fraction).
  double scale = 1.0;
  /// Set-ups per run; setup_s is their median.
  size_t setup_reps = 3;
  /// Small-scale run: every loop stops after 3 ops.
  bool smoke = false;
  std::string cli_path;  ///< built geoalign_cli (cli workload)
  std::string work_dir;  ///< work files and trace output
};

/// Universe seed of the paper's experiments; --seed varies only the
/// workload inputs drawn on top of it (order, perturbations, sites).
inline constexpr uint64_t kUniverseSeed = 2018;

/// Threads wherever the library takes a count: min(4, nproc).
size_t BenchThreads();

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` inside a bench-side span named `span` (a string literal;
/// recorded only while telemetry is on) and returns its wall time.
template <class Fn>
double TimedMs(const char* span, Fn&& fn) {
  geoalign::obs::ScopedSpan scoped(span);
  const double t0 = NowMs();
  fn();
  return NowMs() - t0;
}

double Median(std::vector<double> v);

/// Op times of one closed loop (see MeasureOps).
struct LoopResult {
  std::vector<double> op_ms;
  size_t failed = 0;
  double wall_s = 0.0;  ///< loop wall time, checks included
};

/// Peak resident set in MB of this process, or of its waited-for
/// children when `children` is set.
double PeakRssMb(bool children);

/// Seeded permutation of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

/// Metrics and facts of one workload run.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// End-to-end figure outside BENCHMARK.json's gated metrics; printed
  /// in the report line only.
  void Extra(const std::string& name, double value, const std::string& unit);
  /// Run-environment fact (printed, never compared).
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);

  void CountOps(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty() && failed_ == 0; }

  /// Prints the human summary to stderr, then two stdout lines: the
  /// full report as JSON and, last, the result object with exactly
  /// correct/attempted/failed/metrics (end-to-end metrics untraced,
  /// per-layer metrics traced). Returns the printed `correct`.
  bool Print(bool trace) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::string workload_;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> extras_;
  std::map<std::string, std::string> env_;  ///< values are JSON text
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Every per-layer metric name with its unit. A traced run reports all
/// of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerCatalog();

/// Records the environment shared by all workloads (nproc, threads,
/// ISA, build type, seed, scale).
void RecordCommonEnv(const Args& args, Report* report);

/// Measures a workload's ops and reports setup_s (median of
/// `setup_s`), op_p50_ms and op_tail_ms (with its percentile and sample
/// count), counting every op. Untraced run: one closed loop of
/// args.seconds and at least `min_ops` ops, telemetry off. Traced run:
/// a third of the time untraced, a third traced (telemetry on), each
/// with at least a third of `min_ops`, then `probe(untraced)` with
/// telemetry on and the span buffer cleared first. The traced run then
/// writes the Chrome trace-event JSON of every recorded span to the
/// work dir, prints the per-span self-time table (span time minus child
/// spans on the same thread) to stderr, and reports
/// obs.trace_overhead_ratio. Returns the loop whose op times are
/// reported: the traced one in a traced run.
LoopResult MeasureOps(const Args& args, size_t min_ops,
                      const std::vector<double>& setup_s,
                      const std::function<void(size_t)>& op,
                      const std::function<bool(size_t)>& check,
                      const std::function<void(const LoopResult&)>& probe,
                      Report* report);

}  // namespace perfbench

#endif  // GEOALIGN_PERFBENCH_COMMON_H_
