#include "io/json.h"

#include <cctype>
#include <cstring>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace geoalign::io {

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Result<bool> JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) {
    return Status::InvalidArgument("JSON: not a bool");
  }
  return bool_;
}

Result<double> JsonValue::AsNumber() const {
  if (kind_ != Kind::kNumber) {
    return Status::InvalidArgument("JSON: not a number");
  }
  return number_;
}

Result<std::string> JsonValue::AsString() const {
  if (kind_ != Kind::kString) {
    return Status::InvalidArgument("JSON: not a string");
  }
  return string_;
}

Result<const JsonValue*> JsonValue::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return Status::InvalidArgument("JSON: not an object");
  }
  auto it = object_.find(key);
  if (it == object_.end()) {
    return Status::NotFound("JSON: no member '" + key + "'");
  }
  return &it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

namespace {

void DumpString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void DumpValue(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += std::move(v.AsBool()).ValueOrDie() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      double n = std::move(v.AsNumber()).ValueOrDie();
      if (!std::isfinite(n)) {
        *out += "null";  // JSON has no inf/nan; null keeps it parsable
      } else if (n == std::floor(n) && std::fabs(n) < 1e15) {
        *out += StrFormat("%.0f", n);
      } else {
        *out += StrFormat("%.17g", n);
      }
      break;
    }
    case JsonValue::Kind::kString:
      DumpString(std::move(v.AsString()).ValueOrDie(), out);
      break;
    case JsonValue::Kind::kArray: {
      *out += '[';
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) *out += ',';
        DumpValue(v[i], out);
      }
      *out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) *out += ',';
        first = false;
        DumpString(key, out);
        *out += ':';
        DumpValue(member, out);
      }
      *out += '}';
      break;
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    GEOALIGN_ASSIGN_OR_RETURN(JsonValue v, Value());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("JSON: trailing characters");
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* w) {
    SkipSpace();
    size_t len = std::strlen(w);
    if (text_.compare(pos_, len, w) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> Value() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("JSON: unexpected end of input");
    }
    // The parser is recursive; bound nesting so adversarial input
    // ("[[[[...") cannot overflow the stack.
    if (depth_ >= kMaxDepth) {
      return Status::InvalidArgument("JSON: nesting too deep");
    }
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') {
      GEOALIGN_ASSIGN_OR_RETURN(std::string s, String());
      return JsonValue::MakeString(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue::MakeBool(true);
    if (ConsumeWord("false")) return JsonValue::MakeBool(false);
    if (ConsumeWord("null")) return JsonValue();
    return Number();
  }

  Result<JsonValue> Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    GEOALIGN_ASSIGN_OR_RETURN(double v,
                              ParseDouble(text_.substr(start, pos_ - start)));
    return JsonValue::MakeNumber(v);
  }

  Result<std::string> String() {
    if (!Consume('"')) {
      return Status::InvalidArgument("JSON: expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::InvalidArgument("JSON: bad \\u escape");
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status::InvalidArgument("JSON: bad \\u escape");
              }
            }
            if (code > 0x7F) {
              return Status::Unimplemented(
                  "JSON: non-ASCII \\u escapes unsupported");
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            return Status::InvalidArgument("JSON: bad escape");
        }
      } else {
        out += c;
      }
    }
    return Status::InvalidArgument("JSON: unterminated string");
  }

  Result<JsonValue> Array() {
    ++depth_;
    struct DepthGuard {
      int* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};
    Consume('[');
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    for (;;) {
      GEOALIGN_ASSIGN_OR_RETURN(JsonValue v, Value());
      items.push_back(std::move(v));
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Status::InvalidArgument("JSON: expected ',' or ']'");
    }
    return JsonValue::MakeArray(std::move(items));
  }

  Result<JsonValue> Object() {
    ++depth_;
    struct DepthGuard {
      int* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};
    Consume('{');
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    for (;;) {
      GEOALIGN_ASSIGN_OR_RETURN(std::string key, String());
      if (!Consume(':')) {
        return Status::InvalidArgument("JSON: expected ':'");
      }
      GEOALIGN_ASSIGN_OR_RETURN(JsonValue v, Value());
      members.emplace(std::move(key), std::move(v));
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Status::InvalidArgument("JSON: expected ',' or '}'");
    }
    return JsonValue::MakeObject(std::move(members));
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  DumpValue(*this, &out);
  return out;
}

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace geoalign::io
