// cli_us_loo: the built geoalign_cli (--output aggregates) run as a
// subprocess on files written in set-up: one crosswalk CSV per US
// dataset at round-trip-exact precision and one objective CSV per
// leave-one-out target. One op is the leave-one-out sweep through the
// CLI: ten runs, one per target (seeded order), each with the other
// nine crosswalks as references. Single CLI runs on a shared host are
// bimodal (fast and slow phases of ~0.8 and ~1.2 s), so a median over
// single runs jumps between the modes; a sweep averages ten of them.
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "checks.h"
#include "common/string_util.h"
#include "core/crosswalk_plan.h"
#include "eval/metrics.h"
#include "io/crosswalk_io.h"
#include "io/csv.h"
#include "obs/telemetry.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace core = geoalign::core;
namespace io = geoalign::io;
namespace obs = geoalign::obs;
using geoalign::linalg::Vector;

namespace {

struct FileSet {
  std::vector<std::string> ref_names;
  std::vector<std::string> ref_paths;
  std::string objective_path;
  double bytes = 0.0;  ///< all CSVs of the set
};

struct CliSetup {
  UsSuite suite;
  std::vector<FileSet> sets;  ///< one per held-out target
  /// The objective each set's CSV carries (zips that no reference
  /// covers are left out, as the CLI could not name them).
  std::vector<Vector> objectives;
};

double FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) !=
                          text.size() || std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Writes every dataset's crosswalk once (long form, %.17g so the
// values round-trip exactly) and one objective CSV per target.
CliSetup BuildCliSetup(const Args& args) {
  CliSetup s;
  s.suite = BuildUsSuite(args.scale);
  const auto& datasets = s.suite.universe->datasets;
  const std::vector<std::string> zips =
      UnitNames('z', s.suite.universe->NumZips());
  const std::vector<std::string> counties =
      UnitNames('c', s.suite.universe->NumCounties());
  const std::string dir = args.work_dir + "/cli";
  mkdir(dir.c_str(), 0755);

  std::vector<std::string> paths;
  std::vector<std::vector<bool>> covers;  // dataset -> zip has a cell
  for (size_t d = 0; d < datasets.size(); ++d) {
    const auto& dm = datasets[d].dm;
    std::string text = "source,target,value\n";
    std::vector<bool> cover(dm.rows(), false);
    for (size_t i = 0; i < dm.rows(); ++i) {
      auto row = dm.Row(i);
      for (size_t k = 0; k < row.size; ++k) {
        text += zips[i];
        text += ',';
        text += counties[row.cols[k]];
        text += geoalign::StrFormat(",%.17g\n", row.values[k]);
        cover[i] = true;
      }
    }
    paths.push_back(
        geoalign::StrFormat("%s/crosswalk_%zu.csv", dir.c_str(), d));
    WriteFile(paths.back(), text);
    covers.push_back(std::move(cover));
  }
  for (size_t t = 0; t < datasets.size(); ++t) {
    FileSet set;
    Vector objective = datasets[t].source;
    std::string text = "unit,value\n";
    for (size_t i = 0; i < objective.size(); ++i) {
      bool covered = false;
      for (size_t d = 0; d < datasets.size(); ++d) {
        covered = covered || (d != t && covers[d][i]);
      }
      if (!covered) objective[i] = 0.0;
      if (objective[i] == 0.0) continue;
      text += zips[i] + geoalign::StrFormat(",%.17g\n", objective[i]);
    }
    set.objective_path =
        geoalign::StrFormat("%s/objective_%zu.csv", dir.c_str(), t);
    WriteFile(set.objective_path, text);
    set.bytes = FileBytes(set.objective_path);
    for (size_t d = 0; d < datasets.size(); ++d) {
      if (d == t) continue;
      set.ref_names.push_back(datasets[d].name);
      set.ref_paths.push_back(paths[d]);
      set.bytes += FileBytes(paths[d]);
    }
    s.sets.push_back(std::move(set));
    s.objectives.push_back(std::move(objective));
  }
  return s;
}

// Spawns the CLI and waits for it; returns its exit status (-1 when it
// could not start or did not exit normally).
int RunCliProcess(const std::string& cli, const FileSet& set,
                  const std::string& out_path, bool telemetry) {
  std::vector<std::string> argv = {cli, "--objective", set.objective_path};
  for (size_t k = 0; k < set.ref_paths.size(); ++k) {
    argv.push_back("--ref");
    argv.push_back(set.ref_names[k] + "=" + set.ref_paths[k]);
  }
  for (const char* a : {"--output", "aggregates", "--out", out_path.c_str(),
                        "--telemetry", telemetry ? "on" : "off"}) {
    argv.push_back(a);
  }
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  int rc = posix_spawn(&pid, cli.c_str(), &actions, nullptr, cargv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// In-process replay of the CLI's stage calls in the CLI's order
// (tools/geoalign_cli.cc, --output aggregates), each timed.
struct StageMs {
  double read_csv = 0, from_table = 0, to_table = 0, reresolve = 0,
         aggregates = 0, write_csv = 0, compile = 0, execute = 0, total = 0;
};

StageMs ReplayCli(const FileSet& set, const std::string& out_path) {
  StageMs ms;
  const double t0 = NowMs();
  std::vector<io::LoadedCrosswalk> crosswalks;
  std::vector<std::string> source_units, target_units;
  for (const std::string& path : set.ref_paths) {
    io::Table table;
    ms.read_csv += TimedMs("io.read_csv", [&] {
      table = io::ReadCsvFile(path).ValueOrDie();
    });
    io::LoadedCrosswalk cw;
    ms.from_table += TimedMs("io.crosswalk_from_table", [&] {
      cw = io::CrosswalkFromTable(table, "source", "target", "value")
               .ValueOrDie();
    });
    source_units.insert(source_units.end(), cw.source_units.begin(),
                        cw.source_units.end());
    target_units.insert(target_units.end(), cw.target_units.begin(),
                        cw.target_units.end());
    crosswalks.push_back(std::move(cw));
  }
  for (auto* units : {&source_units, &target_units}) {
    std::sort(units->begin(), units->end());
    units->erase(std::unique(units->begin(), units->end()), units->end());
  }
  core::CrosswalkInput input;
  for (size_t k = 0; k < crosswalks.size(); ++k) {
    io::Table long_form;
    ms.to_table += TimedMs("io.crosswalk_to_table", [&] {
      long_form =
          io::CrosswalkToTable(crosswalks[k], "source", "target", "value");
    });
    io::LoadedCrosswalk aligned;
    ms.reresolve += TimedMs("io.crosswalk_reresolve", [&] {
      aligned = io::CrosswalkFromTable(long_form, "source", "target", "value",
                                       source_units, target_units)
                    .ValueOrDie();
    });
    input.references.push_back(
        io::ReferenceFromCrosswalk(set.ref_names[k], aligned));
  }
  io::Table objective;
  ms.read_csv += TimedMs("io.read_csv", [&] {
    objective = io::ReadCsvFile(set.objective_path).ValueOrDie();
  });
  ms.aggregates += TimedMs("io.aggregates_from_table", [&] {
    input.objective_source =
        io::AggregatesFromTable(objective, "unit", "value", source_units)
            .ValueOrDie();
  });
  input.Validate().CheckOK();
  std::optional<core::CrosswalkPlan> plan;
  ms.compile += TimedMs("core.compile", [&] {
    plan.emplace(
        core::CrosswalkPlan::Compile(input, core::GeoAlignOptions{})
            .ValueOrDie());
  });
  core::CrosswalkResult result;
  ms.execute += TimedMs("core.execute_agg", [&] {
    result = plan->Execute(input.objective_source,
                           core::ExecuteOutput::kAggregatesOnly)
                 .ValueOrDie();
  });
  ms.write_csv += TimedMs("io.write_csv", [&] {
    io::Table out({"unit", "value"});
    for (size_t j = 0; j < target_units.size(); ++j) {
      out.AppendRow({target_units[j],
                     geoalign::StrFormat("%.12g", result.target_estimates[j])})
          .CheckOK();
    }
    io::WriteCsvFile(out, out_path).CheckOK();
  });
  ms.total = NowMs() - t0;
  return ms;
}

// Runs the CLI sweep and checks every output against the in-process
// plan estimates of the same input.
class CliOps {
 public:
  CliOps(const Args& args, const CliSetup& setup,
         const std::vector<size_t>& order)
      : args_(args), setup_(setup), order_(order),
        exit_codes_(setup.sets.size(), 0),
        nrmse_(setup.sets.size(), -1.0) {
    const size_t counties = setup.suite.universe->NumCounties();
    const std::vector<std::string> names = UnitNames('c', counties);
    for (size_t j = 0; j < counties; ++j) target_index_.emplace(names[j], j);
    for (size_t t = 0; t < setup.sets.size(); ++t) {
      auto plan =
          core::CrosswalkPlan::Compile(setup.suite.loo[t], BenchOptions())
              .ValueOrDie();
      expected_.push_back(plan.Execute(setup.objectives[t],
                                       core::ExecuteOutput::kAggregatesOnly)
                              .ValueOrDie()
                              .target_estimates);
      aligned_ += plan.references().aligned() ? 1 : 0;
    }
  }

  std::string OutPath(size_t t) const {
    return geoalign::StrFormat("%s/cli/out_%zu.csv", args_.work_dir.c_str(),
                               t);
  }

  // One sweep: a CLI run per target.
  void Run(bool telemetry) {
    for (size_t t : order_) {
      exit_codes_[t] =
          RunCliProcess(args_.cli_path, setup_.sets[t], OutPath(t), telemetry);
    }
  }

  // Checks (and then removes) every output of the last sweep.
  CheckResult Check() {
    CheckResult all;
    for (size_t t : order_) {
      CheckResult c;
      if (exit_codes_[t] != 0) {
        c.ok = false;
        c.why = "geoalign_cli exited with " + std::to_string(exit_codes_[t]);
      } else {
        c = CheckText(t, ReadFile(OutPath(t)));
      }
      unlink(OutPath(t).c_str());
      all.max_rel_err = std::max(all.max_rel_err, c.max_rel_err);
      if (!c.ok && all.ok) {
        all.ok = false;
        all.why = c.why;
      }
    }
    return all;
  }

  CheckResult CheckText(size_t t, const std::string& text) {
    Vector estimates;
    CheckResult c =
        CheckCliOutput(text, target_index_, expected_[t], &estimates);
    max_rel_err_ = std::max(max_rel_err_, c.max_rel_err);
    if (c.ok && nrmse_[t] < 0.0) {
      nrmse_[t] = geoalign::eval::Nrmse(
          estimates, setup_.suite.universe->datasets[t].target);
    }
    return c;
  }

  double NrmseMean() const {
    double sum = 0.0;
    size_t n = 0;
    for (double v : nrmse_) {
      if (v >= 0.0) {
        sum += v;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  double max_rel_err() const { return max_rel_err_; }
  size_t aligned() const { return aligned_; }

 private:
  const Args& args_;
  const CliSetup& setup_;
  const std::vector<size_t>& order_;
  std::vector<int> exit_codes_;
  std::unordered_map<std::string, size_t> target_index_;
  std::vector<Vector> expected_;
  std::vector<double> nrmse_;
  size_t aligned_ = 0;
  double max_rel_err_ = 0.0;
};

// Replays the CLI's stages in-process for a whole sweep; cli.other_ms
// is the untraced subprocess time per run minus the replay's.
void ProbeLayers(const Args& args, const CliSetup& setup,
                 const std::vector<size_t>& order, double untraced_sweep_ms,
                 Report* report) {
  const std::string out = args.work_dir + "/cli/replay_out.csv";
  std::vector<StageMs> runs;
  for (size_t t : order) runs.push_back(ReplayCli(setup.sets[t], out));
  auto median_of = [&](double StageMs::*field) {
    std::vector<double> v;
    for (const StageMs& s : runs) v.push_back(s.*field);
    return Median(v);
  };
  double bytes = 0.0;
  for (const FileSet& set : setup.sets) bytes += set.bytes;
  report->Layer("io.read_csv_ms", median_of(&StageMs::read_csv), "ms");
  report->Layer("io.crosswalk_from_table_ms", median_of(&StageMs::from_table),
                "ms");
  report->Layer("io.crosswalk_to_table_ms", median_of(&StageMs::to_table),
                "ms");
  report->Layer("io.crosswalk_reresolve_ms", median_of(&StageMs::reresolve),
                "ms");
  report->Layer("io.aggregates_from_table_ms",
                median_of(&StageMs::aggregates), "ms");
  report->Layer("io.write_csv_ms", median_of(&StageMs::write_csv), "ms");
  report->Layer("io.input_bytes",
                bytes / static_cast<double>(setup.sets.size()), "bytes");
  report->Layer("core.compile_ms", median_of(&StageMs::compile), "ms");
  report->Layer("core.execute_agg_ms", median_of(&StageMs::execute), "ms");
  report->Layer("cli.other_ms",
                untraced_sweep_ms / static_cast<double>(order.size()) -
                    median_of(&StageMs::total),
                "ms");
}

}  // namespace

void RunCli(const Args& args, Report* report) {
  if (access(args.cli_path.c_str(), X_OK) != 0) {
    report->Fail("no executable geoalign_cli at '" + args.cli_path + "'");
    return;
  }
  std::vector<double> setup_s;
  CliSetup setup = RepeatedSetup(args.setup_reps, &setup_s,
                                 [&] { return BuildCliSetup(args); });
  const std::vector<size_t> order = SeededOrder(setup.sets.size(), args.seed);
  CliOps cli(args, setup, order);
  double bytes = 0.0;
  for (const FileSet& set : setup.sets) bytes += set.bytes;
  report->Env("zips", static_cast<double>(setup.suite.universe->NumZips()));
  report->Env("counties",
              static_cast<double>(setup.suite.universe->NumCounties()));
  report->Env("csv_bytes_per_op",
              bytes / static_cast<double>(setup.sets.size()));
  report->Env("core.lane_aligned", static_cast<double>(cli.aligned()));

  // Traced ops run the CLI with its own telemetry on as well. No
  // warm-up: every CLI user pays process start, and set-up has just
  // written the CSVs, so they are in the page cache.
  auto op = [&](size_t) { cli.Run(obs::Enabled()); };
  auto check = [&](size_t) {
    CheckResult c = cli.Check();
    if (!c.ok) report->Fail(c.why);
    return c.ok;
  };
  LoopResult loop = MeasureOps(
      args, 3, setup_s, op, check,
      [&](const LoopResult& untraced) {
        ProbeLayers(args, setup, order, Median(untraced.op_ms), report);
      },
      report);
  report->Extra("columns_per_s",
                static_cast<double>(loop.op_ms.size() * order.size()) /
                    loop.wall_s,
                "1/s");
  report->Extra("max_rel_err", cli.max_rel_err(), "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(true), "MB");
  CheckNrmse(args, cli.NrmseMean(), report);
}

bool SelfTestCli(const Args& args) {
  if (access(args.cli_path.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "self-test cli_us_loo: no geoalign_cli\n");
    return false;
  }
  CliSetup setup = BuildCliSetup(args);
  const std::vector<size_t> order = SeededOrder(setup.sets.size(), args.seed);
  CliOps cli(args, setup, order);
  cli.Run(false);
  std::string text = ReadFile(cli.OutPath(order[0]));
  const bool clean = cli.Check().ok;
  // Rewrite the first estimate in one CLI output: the comparison
  // against the in-process plan must flag it.
  bool flagged = false;
  size_t row = text.find('\n');
  size_t comma = text.find(',', row);
  size_t eol = text.find('\n', comma);
  if (row != std::string::npos && comma != std::string::npos &&
      eol != std::string::npos) {
    double v = std::strtod(text.c_str() + comma + 1, nullptr);
    text.replace(comma + 1, eol - comma - 1,
                 geoalign::StrFormat("%.17g", v * (1.0 + 1e-6) + 1e-6));
    flagged = !cli.CheckText(order[0], text).ok;
  }
  std::fprintf(stderr, "self-test cli_us_loo: clean %s, corrupted %s\n",
               clean ? "passes" : "FAILS", flagged ? "flagged" : "NOT FLAGGED");
  return clean && flagged;
}

}  // namespace perfbench
