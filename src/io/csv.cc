#include "io/csv.h"

#include <cstdio>
#include <fstream>

namespace geoalign::io {

namespace {

bool NeedsQuoting(const std::string& field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, const std::string& field) {
  if (!NeedsQuoting(field)) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

bool CsvScanner::NextRecord() {
  while (pos_ < text_.size() && (text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
  return pos_ < text_.size();
}

Status CsvScanner::Read() {
  scratch_.clear();
  spans_.clear();
  const size_t n = text_.size();
  size_t i = pos_;
  while (true) {
    FieldSpan span{i, 0, false};
    if (i < n && text_[i] == '"') {
      span = {scratch_.size(), 0, true};
      ++i;
      while (true) {
        const size_t q = text_.find('"', i);
        if (q == std::string_view::npos) {
          return Status::InvalidArgument("CSV: unterminated quoted field");
        }
        scratch_.append(text_.data() + i, q - i);
        if (q + 1 < n && text_[q + 1] == '"') {
          scratch_ += '"';
          i = q + 2;
        } else {
          i = q + 1;
          break;
        }
      }
    }
    size_t j = i;
    while (j < n && text_[j] != ',' && text_[j] != '\n' && text_[j] != '\r' &&
           text_[j] != '"') {
      ++j;
    }
    if (j < n && text_[j] == '"') {
      return Status::InvalidArgument("CSV: quote inside unquoted field");
    }
    if (span.quoted) {
      scratch_.append(text_.data() + i, j - i);
      span.size = scratch_.size() - span.begin;
    } else {
      span.size = j - span.begin;
    }
    spans_.push_back(span);
    i = j;
    if (i < n && text_[i] == ',') {
      ++i;
      continue;
    }
    // Past a \r or \n; the \n of a \r\n is skipped as a blank line.
    pos_ = i < n ? i + 1 : i;
    break;
  }
  fields_.clear();
  for (const FieldSpan& s : spans_) {
    const std::string_view base = s.quoted ? std::string_view(scratch_) : text_;
    fields_.push_back(base.substr(s.begin, s.size));
  }
  return Status::OK();
}

Result<Table> ParseCsv(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("CSV: empty input");
  CsvScanner scan(text);
  auto cells = [&scan] {
    return std::vector<std::string>(scan.fields().begin(),
                                    scan.fields().end());
  };
  GEOALIGN_RETURN_IF_ERROR(scan.Read());
  GEOALIGN_ASSIGN_OR_RETURN(Table table, Table::Create(cells()));
  while (scan.NextRecord()) {
    GEOALIGN_RETURN_IF_ERROR(scan.Read());
    GEOALIGN_RETURN_IF_ERROR(table.AppendRow(cells()));
  }
  return table;
}

Status ReadTextFile(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open '" + path + "'");
  text->clear();
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text->append(chunk, n);
  }
  std::fclose(f);
  return Status::OK();
}

Result<Table> ReadCsvFile(const std::string& path) {
  std::string text;
  GEOALIGN_RETURN_IF_ERROR(ReadTextFile(path, &text));
  return ParseCsv(text);
}

std::string ToCsv(const Table& table) {
  std::string out;
  const std::vector<std::string>& cols = table.column_names();
  for (size_t c = 0; c < cols.size(); ++c) {
    if (c > 0) out += ',';
    AppendField(&out, cols[c]);
  }
  out += '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) out += ',';
      AppendField(&out, table.Cell(r, c));
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  out << ToCsv(table);
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace geoalign::io
