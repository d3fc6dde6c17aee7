#ifndef GEOALIGN_IO_CSV_H_
#define GEOALIGN_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "io/table.h"

namespace geoalign::io {

/// RFC-4180-style CSV: comma separated, double-quote quoting with ""
/// escapes, first record is the header.

/// Splits CSV text into records; ParseCsv and io::ReadCrosswalkSet
/// both read through it. A record ends at \n, \r or \r\n outside
/// quotes; blank lines between records are skipped. A quote may open
/// only an empty field, text after its closing quote joins the field,
/// and a quote anywhere else is an error. Unquoted fields are views
/// into the text; quoted ones are unescaped into a scratch buffer, so
/// a record's fields stay valid until the next Read.
class CsvScanner {
 public:
  explicit CsvScanner(std::string_view text) : text_(text) {}

  /// Skips blank lines; false once the text is used up. The header is
  /// read at offset 0 without it.
  bool NextRecord();

  /// Reads the record at the cursor and moves past its line end.
  Status Read();

  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  struct FieldSpan {
    size_t begin;
    size_t size;
    bool quoted;  ///< begin indexes scratch_, else text_
  };

  std::string_view text_;
  size_t pos_ = 0;
  std::string scratch_;
  std::vector<FieldSpan> spans_;
  std::vector<std::string_view> fields_;
};

/// Parses CSV text into a Table.
Result<Table> ParseCsv(const std::string& text);

/// Reads a whole file into `text`, reusing its capacity; a file that
/// cannot be opened is IOError.
Status ReadTextFile(const std::string& path, std::string* text);

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path);

/// Serializes a table as CSV (header + rows); quotes only when needed.
std::string ToCsv(const Table& table);

/// Writes a table to a file.
Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace geoalign::io

#endif  // GEOALIGN_IO_CSV_H_
