#include "io/crosswalk_reader.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/csv.h"
#include "obs/trace.h"
#include "sparse/coo_builder.h"

namespace geoalign::io {

namespace {

constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

// The wanted columns of a header record. A missing column is kept in
// `missing` rather than returned: the Table path reports it only after
// the whole file parsed.
template <size_t N>
struct Header {
  std::array<size_t, N> column{};
  size_t width = 0;
  Status missing;
};

// Header rules and messages are Table's: a duplicate name fails at once.
template <size_t N>
Result<Header<N>> ReadHeader(const std::vector<std::string_view>& fields,
                             const std::array<const char*, N>& wanted) {
  GEOALIGN_ASSIGN_OR_RETURN(
      Table names,
      Table::Create(std::vector<std::string>(fields.begin(), fields.end())));
  Header<N> header;
  header.width = fields.size();
  for (size_t k = 0; k < N; ++k) {
    Result<size_t> column = names.ColumnIndex(wanted[k]);
    if (column.ok()) {
      header.column[k] = *column;
    } else if (header.missing.ok()) {
      header.missing = column.status();
    }
  }
  return header;
}

Status CellCountError(size_t cells, size_t columns) {
  return Status::InvalidArgument(
      StrFormat("Table: row has %zu cells, table has %zu columns", cells,
                columns));
}

// The first unparsable cell of the `value` column, reported as
// Table::NumericColumn reports it.
struct FirstBadValue {
  size_t row = kNoRow;
  std::string cell;

  void Note(size_t r, std::string_view text) {
    if (row != kNoRow) return;
    row = r;
    cell = text;
  }
  Status ToStatus() const {
    return Status::InvalidArgument(
        StrFormat("Table: column 'value' row %zu: cannot parse double: '%s'",
                  row, cell.c_str()));
  }
};

}  // namespace

// Unit names interned across files: each distinct name is stored once
// in one arena, and an open-addressing table maps its bytes to a dense
// id without building a std::string per lookup.
class CrosswalkSetReader::Names {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  Names() : slots_(1024, 0) {}

  uint32_t Find(std::string_view name) const {
    const size_t hash = std::hash<std::string_view>{}(name);
    return IdAt(Slot(name, hash));
  }

  uint32_t Intern(std::string_view name) {
    const size_t hash = std::hash<std::string_view>{}(name);
    const size_t slot = Slot(name, hash);
    if (slots_[slot] != 0) return slots_[slot] - 1;
    const size_t id = hashes_.size();
    GEOALIGN_CHECK(id < kNone - 1);
    arena_.append(name);
    ends_.push_back(arena_.size());
    hashes_.push_back(hash);
    slots_[slot] = static_cast<uint32_t>(id + 1);
    if (2 * hashes_.size() > slots_.size()) Grow();
    return static_cast<uint32_t>(id);
  }

  // Sorts the names byte-wise (std::string's order) into `sorted` and
  // returns each id's index there.
  std::vector<uint32_t> Sort(std::vector<std::string>* sorted) const {
    std::vector<std::pair<std::string_view, uint32_t>> order(hashes_.size());
    for (uint32_t id = 0; id < order.size(); ++id) order[id] = {Name(id), id};
    std::sort(order.begin(), order.end());  // names are distinct
    std::vector<uint32_t> rank(order.size());
    sorted->clear();
    sorted->reserve(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      rank[order[k].second] = static_cast<uint32_t>(k);
      sorted->emplace_back(order[k].first);
    }
    return rank;
  }

 private:
  std::string_view Name(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }

  uint32_t IdAt(size_t slot) const {
    return slots_[slot] == 0 ? kNone : slots_[slot] - 1;
  }

  // The slot holding `name`, or the empty slot where it would go.
  size_t Slot(std::string_view name, size_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint32_t id = IdAt(s);
      if (id == kNone || (hashes_[id] == hash && Name(id) == name)) return s;
    }
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t s = hashes_[id] & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(id + 1);
    }
  }

  std::string arena_;
  std::vector<size_t> ends_;    ///< id -> end of its bytes in arena_
  std::vector<size_t> hashes_;  ///< id -> hash of its bytes
  std::vector<uint32_t> slots_;  ///< id + 1, 0 = empty; power-of-2 size
};

CrosswalkSetReader::CrosswalkSetReader()
    : sources_(std::make_unique<Names>()),
      targets_(std::make_unique<Names>()) {}

CrosswalkSetReader::~CrosswalkSetReader() = default;

Status CrosswalkSetReader::AddCrosswalk(std::string name,
                                        std::string_view csv) {
  if (csv.empty()) return Status::InvalidArgument("CSV: empty input");
  CsvScanner scan(csv);
  GEOALIGN_RETURN_IF_ERROR(scan.Read());
  GEOALIGN_ASSIGN_OR_RETURN(
      Header<3> header,
      ReadHeader<3>(scan.fields(), {"source", "target", "value"}));
  const auto [source_col, target_col, value_col] = header.column;
  // As in CrosswalkFromTable, a bad cell anywhere outranks a negative
  // value, and both wait until every record parsed.
  FirstBadValue bad;
  size_t negative_row = kNoRow;
  std::vector<Entry> entries;
  for (size_t row = 0; scan.NextRecord(); ++row) {
    GEOALIGN_RETURN_IF_ERROR(scan.Read());
    const std::vector<std::string_view>& f = scan.fields();
    if (f.size() != header.width) return CellCountError(f.size(), header.width);
    if (!header.missing.ok()) continue;
    Result<double> value = ParseDouble(f[value_col]);
    if (!value.ok()) {
      bad.Note(row, f[value_col]);
      continue;
    }
    if (*value < 0.0 && negative_row == kNoRow) negative_row = row;
    entries.push_back({sources_->Intern(f[source_col]),
                       targets_->Intern(f[target_col]), *value});
  }
  GEOALIGN_RETURN_IF_ERROR(header.missing);
  if (bad.row != kNoRow) return bad.ToStatus();
  if (negative_row != kNoRow) {
    return Status::InvalidArgument(
        StrFormat("crosswalk row %zu: negative value", negative_row));
  }
  crosswalks_.push_back({std::move(name), std::move(entries)});
  return Status::OK();
}

CrosswalkSet CrosswalkSetReader::Build() {
  CrosswalkSet set;
  source_rank_ = sources_->Sort(&set.source_units);
  const std::vector<uint32_t> target_rank = targets_->Sort(&set.target_units);
  sparse::CooBuilder dm(set.source_units.size(), set.target_units.size());
  for (Crosswalk& cw : crosswalks_) {
    // Added in file order, so duplicate (source,target) rows sum in
    // file order.
    for (const Entry& e : cw.entries) {
      dm.Add(source_rank_[e.source], target_rank[e.target], e.value);
    }
    cw.entries = {};
    core::ReferenceAttribute ref;
    ref.name = std::move(cw.name);
    ref.disaggregation = dm.Build();
    ref.source_aggregates = ref.disaggregation.RowSums();
    set.input.references.push_back(std::move(ref));
  }
  crosswalks_.clear();
  return set;
}

Status CrosswalkSetReader::ResolveObjective(std::string_view csv,
                                            CrosswalkSet* set) const {
  if (csv.empty()) return Status::InvalidArgument("CSV: empty input");
  CsvScanner scan(csv);
  GEOALIGN_RETURN_IF_ERROR(scan.Read());
  GEOALIGN_ASSIGN_OR_RETURN(Header<2> header,
                            ReadHeader<2>(scan.fields(), {"unit", "value"}));
  const auto [unit_col, value_col] = header.column;
  // As in AggregatesFromTable, a bad cell anywhere outranks an unknown
  // unit, and both wait until every record parsed.
  FirstBadValue bad;
  size_t unknown_row = kNoRow;
  std::string unknown_unit;
  linalg::Vector objective(set->source_units.size(), 0.0);
  for (size_t row = 0; scan.NextRecord(); ++row) {
    GEOALIGN_RETURN_IF_ERROR(scan.Read());
    const std::vector<std::string_view>& f = scan.fields();
    if (f.size() != header.width) return CellCountError(f.size(), header.width);
    if (!header.missing.ok()) continue;
    Result<double> value = ParseDouble(f[value_col]);
    if (!value.ok()) bad.Note(row, f[value_col]);
    const uint32_t id = sources_->Find(f[unit_col]);
    if (id == Names::kNone) {
      if (unknown_row == kNoRow) {
        unknown_row = row;
        unknown_unit = f[unit_col];
      }
    } else if (value.ok()) {
      objective[source_rank_[id]] += *value;
    }
  }
  GEOALIGN_RETURN_IF_ERROR(header.missing);
  if (bad.row != kNoRow) return bad.ToStatus();
  if (unknown_row != kNoRow) {
    return Status::NotFound(StrFormat("aggregate row %zu: unknown unit '%s'",
                                      unknown_row, unknown_unit.c_str()));
  }
  set->input.objective_source = std::move(objective);
  return Status::OK();
}

Result<CrosswalkSet> ReadCrosswalkSet(
    const std::vector<std::pair<std::string, std::string>>& refs,
    const std::string& objective_path) {
  CrosswalkSetReader reader;
  std::string text;
  {
    GEOALIGN_TRACE_SPAN("io.read_crosswalks");
    for (const auto& [name, path] : refs) {
      GEOALIGN_RETURN_IF_ERROR(ReadTextFile(path, &text));
      GEOALIGN_RETURN_IF_ERROR(reader.AddCrosswalk(name, text));
    }
  }
  CrosswalkSet set;
  {
    GEOALIGN_TRACE_SPAN("io.resolve_units");
    set = reader.Build();
  }
  GEOALIGN_TRACE_SPAN("io.read_objective");
  GEOALIGN_RETURN_IF_ERROR(ReadTextFile(objective_path, &text));
  GEOALIGN_RETURN_IF_ERROR(reader.ResolveObjective(text, &set));
  return set;
}

}  // namespace geoalign::io
