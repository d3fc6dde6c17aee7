#ifndef GEOALIGN_IO_JSON_H_
#define GEOALIGN_IO_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace geoalign::io {

/// Minimal JSON document model — enough for GeoJSON and config files.
/// Values are immutable after parsing; numbers are stored as doubles.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; fail on kind mismatch.
  Result<bool> AsBool() const;
  Result<double> AsNumber() const;
  Result<std::string> AsString() const;

  /// Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& operator[](size_t i) const { return array_[i]; }
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object access; Get fails when the key is missing.
  Result<const JsonValue*> Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  const std::map<std::string, JsonValue>& members() const { return object_; }

  /// Serializes back to compact JSON. A non-finite number is written
  /// as null, so the result always parses.
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses a JSON document (UTF-8; \uXXXX escapes are passed through
/// for ASCII and rejected above 0x7F to keep the parser small).
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace geoalign::io

#endif  // GEOALIGN_IO_JSON_H_
