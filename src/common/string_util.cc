#include "common/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace geoalign {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

Result<double> ParseDouble(std::string_view text) {
  std::string_view t = StripWhitespace(text);
  if (t.empty()) return Status::InvalidArgument("empty number");
  // Fast path. from_chars and strtod both round correctly, so they
  // agree on every normal finite result. Everything else goes to
  // strtod, which keeps deciding what is accepted: a leading '+', hex,
  // inf/nan, zero, subnormal or out-of-range values (strtod flags the
  // last two ERANGE) and trailing garbage.
  double v = 0.0;
  const char* last = t.data() + t.size();
  const auto [stop, ec] = std::from_chars(t.data(), last, v);
  const double magnitude = std::fabs(v);
  if (ec == std::errc() && stop == last &&
      magnitude > std::numeric_limits<double>::min() &&
      magnitude <= std::numeric_limits<double>::max()) {
    return v;
  }
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("cannot parse double: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view text) {
  std::string_view t = StripWhitespace(text);
  if (t.empty()) return Status::InvalidArgument("empty integer");
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("cannot parse integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(n));
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace geoalign
