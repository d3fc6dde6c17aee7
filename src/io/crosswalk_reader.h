#ifndef GEOALIGN_IO_CROSSWALK_READER_H_
#define GEOALIGN_IO_CROSSWALK_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/crosswalk_input.h"

namespace geoalign::io {

/// One-pass reader for the command-line input: a set of long-form
/// crosswalk CSVs (columns `source,target,value`, one reference each)
/// plus an objective CSV (columns `unit,value`).
///
/// It gives the same result, status code and message as parsing each
/// file with ParseCsv, loading each crosswalk with CrosswalkFromTable
/// over the sorted union of all files' units, and resolving the
/// objective with AggregatesFromTable, without building a Table:
///   - every ParseCsv/Table rule holds (quoting and `""`, CRLF, quoted
///     newlines, blank lines, header lookup by name in any order with
///     extra columns, duplicate header names, cell counts);
///   - the unit universes are the byte-wise ascending unions of the
///     source and of the target names of every crosswalk row, zero
///     rows included;
///   - duplicate (source,target) rows of one file are summed from 0.0
///     in file order and exact-zero sums are dropped: each DM is built
///     by CooBuilder, with rows added in file order;
///   - negative values are rejected; an objective unit that no
///     crosswalk names as a source is NotFound, duplicate objective
///     units sum in file order and missing ones are 0.
///
/// Unit names are interned once across all files, so each distinct
/// name is stored and sorted once.
struct CrosswalkSet {
  /// One reference per crosswalk, in the order added (its source
  /// aggregates are the DM row sums), and the objective over
  /// `source_units`. Not yet validated.
  core::CrosswalkInput input;
  std::vector<std::string> source_units;  ///< row order of every DM
  std::vector<std::string> target_units;  ///< column order of every DM
};

class CrosswalkSetReader {
 public:
  CrosswalkSetReader();
  ~CrosswalkSetReader();
  CrosswalkSetReader(const CrosswalkSetReader&) = delete;
  CrosswalkSetReader& operator=(const CrosswalkSetReader&) = delete;

  /// Scans one crosswalk CSV and keeps its rows; `csv` may be dropped
  /// once this returns. After an error, start over with a new reader.
  Status AddCrosswalk(std::string name, std::string_view csv);

  /// After the last AddCrosswalk: sorts the distinct unit names and
  /// builds every reference's DM and row sums. The objective is left
  /// empty for ResolveObjective.
  CrosswalkSet Build();

  /// Resolves an objective CSV against the source units of the last
  /// Build into `set->input.objective_source`.
  Status ResolveObjective(std::string_view csv, CrosswalkSet* set) const;

 private:
  class Names;
  struct Entry {
    uint32_t source;  ///< interned source id
    uint32_t target;  ///< interned target id
    double value;
  };
  struct Crosswalk {
    std::string name;
    std::vector<Entry> entries;  ///< file order
  };

  std::vector<Crosswalk> crosswalks_;
  std::unique_ptr<Names> sources_;
  std::unique_ptr<Names> targets_;
  std::vector<uint32_t> source_rank_;  ///< id -> universe index, by Build
};

/// Reads the crosswalk files `refs` (name, path) one at a time, then
/// the objective file, through a CrosswalkSetReader. A file that cannot
/// be opened is IOError (see ReadTextFile).
Result<CrosswalkSet> ReadCrosswalkSet(
    const std::vector<std::pair<std::string, std::string>>& refs,
    const std::string& objective_path);

}  // namespace geoalign::io

#endif  // GEOALIGN_IO_CROSSWALK_READER_H_
