#ifndef GEOALIGN_BENCH_BENCH_UTIL_H_
#define GEOALIGN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"
#include "synth/universe.h"

namespace geoalign::bench {

/// Builds (and caches per id+suite) a paper-scale universe. The
/// GEOALIGN_BENCH_SCALE environment variable (default 1.0) rescales
/// every universe, letting CI smoke-run the full harness quickly.
inline double BenchScale() {
  const char* env = std::getenv("GEOALIGN_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// Timing repetitions: the GEOALIGN_BENCH_REPS environment variable,
/// or `fallback` when it is unset or not a positive integer.
inline size_t Reps(size_t fallback) {
  const char* env = std::getenv("GEOALIGN_BENCH_REPS");
  if (env == nullptr) return fallback;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

/// BENCH_*.json result files are io::JsonValue documents written by the
/// library's JSON serializer. tools/bench_compare.py pairs metrics by
/// their dotted key paths (list rows by their "op"/"name"/"case"/"kind"
/// string), so renaming a key unpairs its metric from the committed
/// baseline.
using Json = io::JsonValue;
using JsonObject = std::map<std::string, Json>;
inline Json Num(double v) { return Json::MakeNumber(v); }
inline Json Str(std::string s) { return Json::MakeString(std::move(s)); }
inline Json Bool(bool b) { return Json::MakeBool(b); }
inline Json Obj(JsonObject members) {
  return Json::MakeObject(std::move(members));
}
inline Json Arr(std::vector<Json> items) {
  return Json::MakeArray(std::move(items));
}

/// Writes one result file: `fields` plus the members every file
/// carries — "bench" (selects the BENCH_<bench>.json baseline), "date"
/// (UTC), "bench_scale" and "repetitions". Reports the outcome on
/// stdout/stderr.
inline bool WriteBenchJson(const char* path, const char* bench,
                           size_t repetitions, JsonObject fields) {
  std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%d", std::gmtime(&now));
  fields["bench"] = Str(bench);
  fields["date"] = Str(stamp);
  fields["bench_scale"] = Num(BenchScale());
  fields["repetitions"] = Num(static_cast<double>(repetitions));
  const std::string text = Obj(std::move(fields)).Dump() + "\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

inline const synth::Universe& GetUniverse(
    synth::UniverseId id, std::optional<synth::SuiteKind> suite = {}) {
  struct Key {
    synth::UniverseId id;
    int suite;
  };
  static std::vector<std::pair<Key, std::unique_ptr<synth::Universe>>> cache;
  int suite_key = suite.has_value() ? static_cast<int>(*suite) : -1;
  for (auto& [key, uni] : cache) {
    if (key.id == id && key.suite == suite_key) return *uni;
  }
  synth::UniverseOptions opts;
  opts.scale = BenchScale();
  opts.seed = 2018;
  opts.suite = suite;
  auto built = synth::BuildUniverse(id, opts);
  built.status().CheckOK();
  cache.emplace_back(Key{id, suite_key}, std::make_unique<synth::Universe>(
                                             std::move(built).value()));
  return *cache.back().second;
}

}  // namespace geoalign::bench

#endif  // GEOALIGN_BENCH_BENCH_UTIL_H_
