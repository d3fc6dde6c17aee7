// End-to-end test of the geoalign_cli binary: writes CSV fixtures,
// invokes the tool as a subprocess, and checks the realigned output.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/crosswalk_plan.h"
#include "io/csv.h"
#include "sparse/coo_builder.h"

namespace geoalign {
namespace {

// The CLI binary lives next to the test tree in the build directory;
// tests run with CWD = build/tests (gtest_discover_tests default).
std::string CliPath() {
  for (const char* candidate :
       {"../tools/geoalign_cli", "build/tools/geoalign_cli",
        "./tools/geoalign_cli"}) {
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return "";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = CliPath();
    if (cli_.empty()) {
      GTEST_SKIP() << "geoalign_cli binary not found relative to CWD";
    }
    dir_ = ::testing::TempDir() + "/geoalign_cli_test";
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    WriteFile(dir_ + "/steam.csv",
              "unit,value\n10001,100\n10002,60\n");
    WriteFile(dir_ + "/pop.csv",
              "source,target,value\n"
              "10001,A,10000\n10001,B,15000\n10002,B,5000\n");
  }

  int RunCli(const std::string& args, const std::string& out_csv) {
    std::string cmd = cli_ + " --objective " + dir_ + "/steam.csv " + args +
                      " --out " + out_csv + " 2>/dev/null";
    return std::system(cmd.c_str());
  }

  std::string cli_;
  std::string dir_;
};

TEST_F(CliTest, GeoAlignRealignsAndPreservesMass) {
  std::string out = dir_ + "/out.csv";
  ASSERT_EQ(RunCli("--ref population=" + dir_ + "/pop.csv", out), 0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  auto kv = std::move(table.KeyValueColumn("unit", "value")).ValueOrDie();
  ASSERT_EQ(kv.size(), 2u);
  // The paper's intro split: 100 -> 40/60, plus 60 entirely in B.
  EXPECT_EQ(kv[0].first, "A");
  EXPECT_NEAR(kv[0].second, 40.0, 1e-6);
  EXPECT_EQ(kv[1].first, "B");
  EXPECT_NEAR(kv[1].second, 120.0, 1e-6);
}

TEST_F(CliTest, DasymetricMethodSelection) {
  std::string out = dir_ + "/out_dasy.csv";
  ASSERT_EQ(RunCli("--ref population=" + dir_ + "/pop.csv "
                   "--method dasymetric=population",
                   out),
            0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST_F(CliTest, BadUsageFailsNonZero) {
  // Missing --ref.
  std::string cmd = cli_ + " --objective " + dir_ + "/steam.csv 2>/dev/null";
  EXPECT_NE(std::system(cmd.c_str()), 0);
  // Unknown method.
  EXPECT_NE(RunCli("--ref population=" + dir_ + "/pop.csv --method nope",
                   dir_ + "/x.csv"),
            0);
  // Objective unit missing from the crosswalk universe.
  WriteFile(dir_ + "/bad_obj.csv", "unit,value\n99999,5\n");
  std::string cmd2 = cli_ + " --objective " + dir_ +
                     "/bad_obj.csv --ref population=" + dir_ +
                     "/pop.csv 2>/dev/null >/dev/null";
  EXPECT_NE(std::system(cmd2.c_str()), 0);
}

TEST_F(CliTest, SeventeenDigitCrosswalksMatchInProcessPlan) {
  // Two crosswalks over overlapping, different unit ranges, so the CLI
  // must merge universes and re-index both. Every value carries 17
  // significant digits: a text round trip at fewer digits moves the
  // learned weights and, with them, printed estimates.
  auto name = [](char prefix, size_t i) {
    return StrFormat("%c%04zu", prefix, i);
  };
  const size_t kSources = 400, kTargets = 200;
  struct Range {
    size_t source_begin, source_end, target_begin, target_end;
  };
  const Range ranges[] = {{0, 300, 0, 150}, {100, 400, 50, 200}};
  core::CrosswalkInput input;
  std::string ref_args;
  for (size_t k = 0; k < 2; ++k) {
    const Range& r = ranges[k];
    Rng rng(2018, k);
    sparse::CooBuilder builder(kSources, kTargets);
    std::string csv = "source,target,value\n";
    const size_t span = r.target_end - r.target_begin;
    for (size_t s = r.source_begin; s < r.source_end; ++s) {
      for (size_t hop = 0; hop < 1 + s % 3; ++hop) {
        const size_t t = r.target_begin + (s * 7 + hop * 13) % span;
        const double v = rng.Uniform(1.0, 1000.0);
        builder.Add(s, t, v);
        csv += name('s', s) + "," + name('t', t) + "," +
               StrFormat("%.17g", v) + "\n";
      }
    }
    const std::string path = dir_ + StrFormat("/ref17_%zu.csv", k);
    WriteFile(path, csv);
    ref_args += StrFormat(" --ref r%zu=", k) + path;
    core::ReferenceAttribute ref;
    ref.name = StrFormat("r%zu", k);
    ref.disaggregation = builder.Build();
    ref.source_aggregates = ref.disaggregation.RowSums();
    input.references.push_back(std::move(ref));
  }
  Rng rng(2018, 9);
  std::string objective = "unit,value\n";
  for (size_t s = 0; s < kSources; ++s) {
    input.objective_source.push_back(rng.Uniform(0.0, 500.0));
    objective +=
        name('s', s) + "," + StrFormat("%.17g", input.objective_source[s]) +
        "\n";
  }
  WriteFile(dir_ + "/obj17.csv", objective);

  const std::string out = dir_ + "/out17.csv";
  const std::string cmd = cli_ + " --objective " + dir_ + "/obj17.csv" +
                          ref_args + " --output aggregates --out " + out +
                          " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
  auto units = std::move(table.StringColumn("unit")).ValueOrDie();
  auto values = std::move(table.StringColumn("value")).ValueOrDie();

  auto plan = std::move(core::CrosswalkPlan::Compile(input,
                                                     core::GeoAlignOptions{}))
                  .ValueOrDie();
  auto want = std::move(plan.Execute(input.objective_source,
                                     core::ExecuteOutput::kAggregatesOnly))
                  .ValueOrDie();
  ASSERT_EQ(units.size(), kTargets);
  for (size_t t = 0; t < kTargets; ++t) {
    EXPECT_EQ(units[t], name('t', t));
    EXPECT_EQ(values[t], StrFormat("%.12g", want.target_estimates[t]))
        << "target " << units[t];
  }
}

}  // namespace
}  // namespace geoalign
