// End-to-end test of the geoalign_cli binary: writes CSV fixtures,
// invokes the tool as a subprocess, and checks the realigned output.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
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
  std::ofstream out(path, std::ios::binary);
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
  // learned weights and, with them, printed estimates. The printed
  // estimates must parse back to the plan's exact bits.
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
    char* end = nullptr;
    const double parsed = std::strtod(values[t].c_str(), &end);
    ASSERT_EQ(*end, '\0') << values[t];
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed),
              std::bit_cast<uint64_t>(want.target_estimates[t]))
        << "target " << units[t];
  }
}

// One crosswalk row as a file states it.
struct Row {
  std::string source, target;
  double value;
};

size_t IndexIn(const std::vector<std::string>& units, const std::string& u) {
  for (size_t i = 0; i < units.size(); ++i) {
    if (units[i] == u) return i;
  }
  ADD_FAILURE() << "unit '" << u << "' missing from its universe";
  return 0;
}

// The DM a crosswalk file denotes: duplicate (source,target) rows
// summed in file order, exact-zero sums dropped.
sparse::CsrMatrix DmInFileOrder(const std::vector<Row>& rows,
                                const std::vector<std::string>& sources,
                                const std::vector<std::string>& targets) {
  std::map<std::pair<size_t, size_t>, double> cells;
  for (const Row& r : rows) {
    cells[{IndexIn(sources, r.source), IndexIn(targets, r.target)}] +=
        r.value;
  }
  std::vector<size_t> row_ptr(sources.size() + 1, 0), col_idx;
  std::vector<double> values;
  for (const auto& [at, v] : cells) {
    if (v == 0.0) continue;
    ++row_ptr[at.first + 1];
    col_idx.push_back(at.second);
    values.push_back(v);
  }
  for (size_t i = 1; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];
  return std::move(sparse::CsrMatrix::FromCsrArrays(
                       sources.size(), targets.size(), std::move(row_ptr),
                       std::move(col_idx), std::move(values)))
      .ValueOrDie();
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(CliTest, CsvEdgeSemanticsMatchInProcessPlan) {
  // CRLF line ends, blank lines, quoted unit names holding `,` and
  // `""`, reordered columns plus an extra one, whitespace-padded
  // values, three duplicate (source,target) rows whose sum depends on
  // the order, a `0` row (its units still join the universes), and a
  // source unit present in only one of the two files.
  WriteFile(dir_ + "/edge_a.csv",
            "\"value\",note,target,source\r\n"
            "\r\n"
            " 1.5 ,x,T1,\"S,1\"\r\n"
            "0.1,dup,T1,\"S\"\"2\"\r\n"
            "0.2,dup,T1,\"S\"\"2\"\r\n"
            "\r\n"
            "0.3,dup,T1,\"S\"\"2\"\r\n"
            "7.25 ,y,\"T,2\",\"S,1\"\r\n"
            "0,zero,T3,S0\r\n"
            "\t2.5,z,\"T,2\",S4\r\n");
  WriteFile(dir_ + "/edge_b.csv",
            "source,target,value\n"
            "\"S,1\",T1,3\n"
            "S5,\"T,2\",4.5\n"
            "S4,T1,1e-3\n");
  // Duplicate objective units sum.
  WriteFile(dir_ + "/edge_obj.csv",
            "unit,value\nS4,2\n\"S,1\",10\nS5,3\n\"S\"\"2\",6\nS4,1.25\n");

  // Byte-wise sorted universes of both files' units.
  const std::vector<std::string> sources = {"S\"2", "S,1", "S0", "S4", "S5"};
  const std::vector<std::string> targets = {"T,2", "T1", "T3"};
  const std::vector<Row> rows_a = {{"S,1", "T1", 1.5},  {"S\"2", "T1", 0.1},
                                   {"S\"2", "T1", 0.2}, {"S\"2", "T1", 0.3},
                                   {"S,1", "T,2", 7.25}, {"S0", "T3", 0.0},
                                   {"S4", "T,2", 2.5}};
  const std::vector<Row> rows_b = {
      {"S,1", "T1", 3.0}, {"S5", "T,2", 4.5}, {"S4", "T1", 1e-3}};
  core::CrosswalkInput input;
  for (const auto& [name, rows] :
       {std::pair{"a", &rows_a}, std::pair{"b", &rows_b}}) {
    core::ReferenceAttribute ref;
    ref.name = name;
    ref.disaggregation = DmInFileOrder(*rows, sources, targets);
    ref.source_aggregates = ref.disaggregation.RowSums();
    input.references.push_back(std::move(ref));
  }
  // The order matters for this sum: 0.2 + 0.3 + 0.1 differs from it.
  ASSERT_NE(0.1 + 0.2 + 0.3, 0.2 + 0.3 + 0.1);
  input.objective_source = {6.0, 10.0, 0.0, 2.0 + 1.25, 3.0};
  auto plan = std::move(core::CrosswalkPlan::Compile(input,
                                                     core::GeoAlignOptions{}))
                  .ValueOrDie();
  auto want = std::move(plan.Execute(input.objective_source,
                                     core::ExecuteOutput::kAggregatesOnly))
                  .ValueOrDie();

  for (const char* output : {"aggregates", "dm"}) {
    const std::string out = dir_ + "/edge_out.csv";
    const std::string cmd = cli_ + " --objective " + dir_ +
                            "/edge_obj.csv --ref a=" + dir_ +
                            "/edge_a.csv --ref b=" + dir_ +
                            "/edge_b.csv --output " + output + " --out " +
                            out + " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << output;
    auto table = std::move(io::ReadCsvFile(out)).ValueOrDie();
    auto units = std::move(table.StringColumn("unit")).ValueOrDie();
    auto values = std::move(table.StringColumn("value")).ValueOrDie();
    ASSERT_EQ(units, targets) << output;
    for (size_t t = 0; t < targets.size(); ++t) {
      char* end = nullptr;
      const double parsed = std::strtod(values[t].c_str(), &end);
      ASSERT_EQ(*end, '\0') << values[t];
      EXPECT_EQ(std::bit_cast<uint64_t>(parsed),
                std::bit_cast<uint64_t>(want.target_estimates[t]))
          << output << " target " << units[t];
    }
  }
}

TEST_F(CliTest, CsvErrorsNameTheirCause) {
  struct Case {
    const char* crosswalk;
    const char* objective;
    const char* message;
  };
  const Case cases[] = {
      {"source,target,value\na,b,1\na,c,-2\n", "unit,value\na,1\n",
       "crosswalk row 1: negative value"},
      {"source,target,value\na,b,1\na,c,12x\n", "unit,value\na,1\n",
       "Table: column 'value' row 1: cannot parse double: '12x'"},
      {"source,target,value\na,b,1\n", "unit,value\na,1\nzz,2\n",
       "aggregate row 1: unknown unit 'zz'"},
      {"source,target,value\na,b,1\n\"a,c,2\n", "unit,value\na,1\n",
       "CSV: unterminated quoted field"},
      {"source,target,value\na,b,1\na,c\n", "unit,value\na,1\n",
       "Table: row has 2 cells, table has 3 columns"},
      {"source,target,amount\na,b,1\n", "unit,value\na,1\n",
       "Table: no column named 'value'"},
  };
  for (const Case& c : cases) {
    WriteFile(dir_ + "/err_cw.csv", c.crosswalk);
    WriteFile(dir_ + "/err_obj.csv", c.objective);
    const std::string err = dir_ + "/err.txt";
    const std::string cmd = cli_ + " --objective " + dir_ +
                            "/err_obj.csv --ref r=" + dir_ +
                            "/err_cw.csv --out " + dir_ + "/err_out.csv 2>" +
                            err;
    EXPECT_NE(std::system(cmd.c_str()), 0) << c.message;
    EXPECT_NE(ReadText(err).find(c.message), std::string::npos)
        << "stderr: " << ReadText(err);
  }
}

}  // namespace
}  // namespace geoalign
