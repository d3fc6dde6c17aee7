// perfbench — the repository benchmark binary. Normally started by
// run.py (which builds it); see ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --cli <geoalign_cli> --work-dir <dir> [--smoke]
//   perfbench --self-test --cli <geoalign_cli> --work-dir <dir>
//
// Exit status: 0 when every op passed its check, 1 on a failed check,
// 2 on bad arguments.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/telemetry.h"
#include "workloads.h"

namespace {

using perfbench::Args;

struct Workload {
  const char* name;
  void (*run)(const Args&, perfbench::Report*);
  bool (*self_test)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"cli_us_loo", perfbench::RunCli, perfbench::SelfTestCli},
    {"single_shot_loo", perfbench::RunSingleShot,
     perfbench::SelfTestSingleShot},
    {"portal_unaligned", perfbench::RunPortal, perfbench::SelfTestPortal},
    {"overlay_voronoi", perfbench::RunOverlay, perfbench::SelfTestOverlay},
};

// Scale of --smoke and --self-test: small universes that finish in
// seconds.
constexpr double kSmokeScale = 0.05;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --cli <path> --work-dir <dir> "
               "[--smoke]\n       perfbench --self-test --cli <path> "
               "--work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (!has_value) {
      return Usage(("missing value after " + arg).c_str());
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--cli") {
      args.cli_path = argv[++i];
    } else if (arg == "--work-dir") {
      args.work_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  mkdir(args.work_dir.c_str(), 0755);
  if (smoke || self_test) {
    args.scale = kSmokeScale;
    args.setup_reps = 1;
    args.smoke = true;
  }
  // End-to-end timing runs with telemetry off; traced runs switch it
  // on around their traced phases only.
  geoalign::obs::SetEnabled(false);

  if (self_test) {
    bool ok = true;
    for (const Workload& w : kWorkloads) {
      args.workload = w.name;
      ok = w.self_test(args) && ok;
    }
    std::fprintf(stderr, "perfbench self-test: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
    perfbench::Report report(w.name);
    perfbench::RecordCommonEnv(args, &report);
    w.run(args, &report);
    return report.Print(args.trace) ? 0 : 1;
  }
  return Usage(("unknown workload '" + args.workload + "'").c_str());
}
