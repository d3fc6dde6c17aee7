// Tests of io::CrosswalkSetReader: bit-exact values across a universe
// merge, file errors, and a differential fuzz against the Table path
// (ParseCsv + CrosswalkFromTable + AggregatesFromTable).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "io/crosswalk_io.h"
#include "io/crosswalk_reader.h"
#include "io/csv.h"

namespace geoalign {
namespace {

template <typename A, typename B>
bool SameBits(const A& a, const B& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

Result<io::CrosswalkSet> ParseSet(
    const std::vector<std::pair<std::string, std::string>>& crosswalks,
    const std::string& objective) {
  io::CrosswalkSetReader reader;
  for (const auto& [name, csv] : crosswalks) {
    GEOALIGN_RETURN_IF_ERROR(reader.AddCrosswalk(name, csv));
  }
  io::CrosswalkSet set = reader.Build();
  GEOALIGN_RETURN_IF_ERROR(reader.ResolveObjective(objective, &set));
  return set;
}

TEST(CrosswalkSetReader, MergeKeepsValuesBitExact) {
  // Crosswalk "bd" covers sources {b, d} x targets {x, z}; "ac" covers
  // {a, c} x {w, y}, so "bd" lands on rows 1 and 3, columns 1 and 3 of
  // the merged universes with every value's bits intact.
  const double v0 = 0.1 + 0.2, v1 = 1.0 / 3.0, v2 = 2.0 / 7.0;
  const std::string bd = StrFormat(
      "source,target,value\nb,x,%.17g\nb,z,%.17g\nd,z,%.17g\n", v0, v1, v2);
  const std::string ac = "source,target,value\na,w,1\nc,y,2\n";
  auto set = ParseSet({{"bd", bd}, {"ac", ac}}, "unit,value\nd,4\nb,1\n");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->source_units,
            (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(set->target_units,
            (std::vector<std::string>{"w", "x", "y", "z"}));
  ASSERT_EQ(set->input.references.size(), 2u);
  const core::ReferenceAttribute& ref = set->input.references[0];
  EXPECT_EQ(ref.name, "bd");
  EXPECT_EQ(ref.disaggregation.rows(), 4u);
  EXPECT_EQ(ref.disaggregation.cols(), 4u);
  EXPECT_EQ(ref.disaggregation.row_ptr(),
            (std::vector<size_t>{0, 0, 2, 2, 3}));
  EXPECT_EQ(ref.disaggregation.col_idx(), (std::vector<size_t>{1, 3, 3}));
  EXPECT_TRUE(SameBits(ref.disaggregation.values(),
                       std::vector<double>{v0, v1, v2}));
  EXPECT_TRUE(SameBits(ref.source_aggregates,
                       std::vector<double>{0.0, v0 + v1, 0.0, v2}));
  EXPECT_EQ(set->input.objective_source,
            (linalg::Vector{0.0, 1.0, 0.0, 4.0}));

  // An objective unit no crosswalk names as a source is NotFound; a
  // target name does not count.
  auto unknown = ParseSet({{"bd", bd}, {"ac", ac}}, "unit,value\nb,1\nx,2\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status().message(), "aggregate row 1: unknown unit 'x'");
}

TEST(CrosswalkSetReader, ReadsFilesAndNamesMissingOnes) {
  const std::string dir = ::testing::TempDir();
  const std::string cw = dir + "/reader_cw.csv";
  const std::string obj = dir + "/reader_obj.csv";
  for (const auto& [path, text] :
       {std::pair{cw, "source,target,value\na,x,2\nb,x,3\n"},
        std::pair{obj, "unit,value\nb,5\n"}}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  }
  auto set = io::ReadCrosswalkSet({{"r", cw}}, obj);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->target_units, (std::vector<std::string>{"x"}));
  EXPECT_EQ(set->input.references[0].source_aggregates,
            (linalg::Vector{2.0, 3.0}));
  EXPECT_EQ(set->input.objective_source, (linalg::Vector{0.0, 5.0}));

  auto missing_ref = io::ReadCrosswalkSet({{"r", dir + "/no_such.csv"}}, obj);
  ASSERT_FALSE(missing_ref.ok());
  EXPECT_EQ(missing_ref.status().code(), StatusCode::kIOError);
  auto missing_obj = io::ReadCrosswalkSet({{"r", cw}}, dir + "/no_such.csv");
  ASSERT_FALSE(missing_obj.ok());
  EXPECT_EQ(missing_obj.status().code(), StatusCode::kIOError);
  std::remove(cw.c_str());
  std::remove(obj.c_str());
}

// The composition the reader replaces: every file through ParseCsv,
// the universes as the sorted union of each crosswalk's own units, each
// crosswalk loaded onto them by CrosswalkFromTable, the objective by
// AggregatesFromTable.
Result<io::CrosswalkSet> TablePath(
    const std::vector<std::pair<std::string, std::string>>& crosswalks,
    const std::string& objective) {
  std::vector<io::Table> tables;
  io::CrosswalkSet set;
  for (const auto& [name, csv] : crosswalks) {
    GEOALIGN_ASSIGN_OR_RETURN(io::Table table, io::ParseCsv(csv));
    GEOALIGN_ASSIGN_OR_RETURN(
        io::LoadedCrosswalk own,
        io::CrosswalkFromTable(table, "source", "target", "value"));
    set.source_units.insert(set.source_units.end(), own.source_units.begin(),
                            own.source_units.end());
    set.target_units.insert(set.target_units.end(), own.target_units.begin(),
                            own.target_units.end());
    tables.push_back(std::move(table));
  }
  for (std::vector<std::string>* units :
       {&set.source_units, &set.target_units}) {
    std::sort(units->begin(), units->end());
    units->erase(std::unique(units->begin(), units->end()), units->end());
  }
  for (size_t k = 0; k < tables.size(); ++k) {
    GEOALIGN_ASSIGN_OR_RETURN(
        io::LoadedCrosswalk cw,
        io::CrosswalkFromTable(tables[k], "source", "target", "value",
                               set.source_units, set.target_units));
    set.input.references.push_back(
        io::ReferenceFromCrosswalk(crosswalks[k].first, cw));
  }
  GEOALIGN_ASSIGN_OR_RETURN(io::Table table, io::ParseCsv(objective));
  GEOALIGN_ASSIGN_OR_RETURN(
      set.input.objective_source,
      io::AggregatesFromTable(table, "unit", "value", set.source_units));
  return set;
}

// Edits biased toward the CSV and number rules: structural characters,
// line ends, header names, signs, subnormals, non-finite values and
// duplicated records.
std::string MutateCsv(std::string text, Rng& rng) {
  static const char* const kTokens[] = {
      ",",     "\"",     "\"\"",   "\r\n",   "\n",     "\r",    "\n\n",
      " ",     "\t",     "-1",     "-0",     "0",      "1e-310", "1e400",
      "nan",   "inf",    "+2",     "0x1p3",  "12x",    ".5",    "a",
      "b",     ",value", "source", "target", "unit",   "\"a,b\"", "value"};
  const size_t edits = 1 + rng.UniformInt(uint64_t{2});
  for (size_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t pos = rng.UniformInt(uint64_t{text.size()});
    switch (rng.UniformInt(uint64_t{4})) {
      case 0:
        text.erase(pos, 1 + rng.UniformInt(uint64_t{3}));
        break;
      case 1:
        text.insert(pos, kTokens[rng.UniformInt(uint64_t{std::size(kTokens)})]);
        break;
      case 2: {
        // Duplicate the record holding `pos`.
        const size_t begin = text.rfind('\n', pos);
        const size_t start = begin == std::string::npos ? 0 : begin + 1;
        const size_t end = text.find('\n', pos);
        if (end == std::string::npos) break;
        text.insert(end + 1, text.substr(start, end + 1 - start));
        break;
      }
      default: {
        static constexpr char kChars[] = "ab,\"\r\n01.- ";
        text[pos] = kChars[rng.UniformInt(uint64_t{sizeof(kChars) - 1})];
      }
    }
  }
  return text;
}

// 40 rows, where "e,w" repeats at rows 3, 19 and 36 with values whose
// sum depends on the order, and pairs 35 rows apart repeat too: both
// paths must sum duplicates in file order however long the file is.
std::string LongCrosswalk() {
  static const char* const kRepeats[] = {"0.1", "0.2", "0.3"};
  std::string csv = "source,target,value\n";
  size_t repeat = 0;
  for (size_t row = 0; row < 40; ++row) {
    if (row == 3 || row == 19 || row == 36) {
      csv += StrFormat("e,w,%s\n", kRepeats[repeat++]);
    } else {
      csv += StrFormat("s%zu,t%zu,%zu.%zu\n", row % 7, row % 5, row + 1,
                       row % 3);
    }
  }
  return csv;
}

TEST(Fuzz, CrosswalkSetReaderMatchesTablePath) {
  Rng rng(105);
  // b,x repeats three times with values whose sum depends on the order.
  const std::string cw_a =
      "source,target,value\na,x,1.5\nb,x,0.1\nb,y,2\nb,x,0.2\n"
      "c,\"y,1\",3\nb,x,0.3\n";
  const std::string cw_b =
      "target,value,source,note\nx,4,a,n\n\"y,1\",0.125,d,\"m\"\"\"\nz,0,c,\n";
  const std::string cw_c = LongCrosswalk();
  const std::string objective = "unit,value\na,1\nb,2\nd,0.5\nb,3\n";
  size_t both_ok = 0, mutated_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::pair<std::string, std::string>> crosswalks = {
        {"a", rng.Bernoulli(0.75) ? MutateCsv(cw_a, rng) : cw_a},
        {"b", rng.Bernoulli(0.75) ? MutateCsv(cw_b, rng) : cw_b},
        {"c", rng.Bernoulli(0.5) ? MutateCsv(cw_c, rng) : cw_c}};
    const std::string obj =
        rng.Bernoulli(0.5) ? MutateCsv(objective, rng) : objective;
    Result<io::CrosswalkSet> got = ParseSet(crosswalks, obj);
    Result<io::CrosswalkSet> want = TablePath(crosswalks, obj);
    const std::string where = "case " + std::to_string(i) + ":\n" +
                              crosswalks[0].second + "--\n" +
                              crosswalks[1].second + "--\n" +
                              crosswalks[2].second + "--\n" + obj;
    ASSERT_EQ(got.ok(), want.ok())
        << where << "\nreader: " << got.status().ToString()
        << "\ntable path: " << want.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
      continue;
    }
    ++both_ok;
    if (crosswalks[0].second != cw_a || crosswalks[1].second != cw_b ||
        crosswalks[2].second != cw_c || obj != objective) {
      ++mutated_ok;
    }
    EXPECT_EQ(got->source_units, want->source_units) << where;
    EXPECT_EQ(got->target_units, want->target_units) << where;
    EXPECT_TRUE(SameBits(got->input.objective_source,
                         want->input.objective_source))
        << where;
    ASSERT_EQ(got->input.references.size(), want->input.references.size());
    for (size_t k = 0; k < got->input.references.size(); ++k) {
      const core::ReferenceAttribute& g = got->input.references[k];
      const core::ReferenceAttribute& w = want->input.references[k];
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.disaggregation.rows(), w.disaggregation.rows()) << where;
      EXPECT_EQ(g.disaggregation.cols(), w.disaggregation.cols()) << where;
      EXPECT_EQ(g.disaggregation.row_ptr(), w.disaggregation.row_ptr())
          << where;
      EXPECT_EQ(g.disaggregation.col_idx(), w.disaggregation.col_idx())
          << where;
      EXPECT_TRUE(
          SameBits(g.disaggregation.values(), w.disaggregation.values()))
          << where;
      EXPECT_TRUE(SameBits(g.source_aggregates, w.source_aggregates))
          << where;
    }
  }
  // Both outcomes must be well represented, ok ones with edited input
  // included, for the comparison to mean anything.
  EXPECT_GT(mutated_ok, 100u);
  EXPECT_LT(both_ok, 1800u);
}

}  // namespace
}  // namespace geoalign
