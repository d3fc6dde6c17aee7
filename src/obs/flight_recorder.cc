#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"
#include "obs/metrics.h"

namespace geoalign::obs {

namespace {

/// Set once the fatal/crash dump has been written; the GEOALIGN_CHECK
/// path (NotifyFatal) aborts into SIGABRT, whose handler would
/// otherwise truncate the just-written dump.
std::atomic<bool> g_fatal_dumped{false};

/// Fixed-buffer dump path so the signal path never allocates.
char g_dump_path[512] = {0};

/// Thread-safe one-time env read via a function-local static.
void InitPathFromEnvOnce() {
  static const bool initialized = [] {
    const char* env = std::getenv("GEOALIGN_FLIGHT_RECORDER");
    if (env != nullptr) {
      std::strncpy(g_dump_path, env, sizeof(g_dump_path) - 1);
      g_dump_path[sizeof(g_dump_path) - 1] = '\0';
    }
    return true;
  }();
  (void)initialized;
}

/// The last metrics line rendered by DumpToFile, kept for the signal
/// path (which cannot snapshot the registry). Previous lines are
/// intentionally leaked: dumps are rare and a signal-time reader may
/// still hold the old pointer.
std::atomic<const char*> g_metrics_cache{nullptr};

void AppendEscapedJson(std::string& out, const char* s) {
  out.push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void AppendHex(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

void AppendAuditJson(std::string& out, const AuditRecord& r) {
  out += "{\"type\":\"audit\",\"seq\":" + std::to_string(r.seq);
  out += ",\"request_id\":";
  AppendEscapedJson(out, r.request_id);
  out += ",\"request_seq\":" + std::to_string(r.request_seq);
  out += ",\"fingerprint\":\"";
  AppendHex(out, r.plan_fingerprint);
  out += "\",\"mode\":";
  AppendEscapedJson(out, r.mode);
  out += ",\"panel_width\":" + std::to_string(r.panel_width);
  out += ",\"isa\":" + std::to_string(r.isa);
  out += ",\"rows\":" + std::to_string(r.rows);
  out += ",\"latency_us\":" + std::to_string(r.latency_us);
  out += ",\"zero_rows\":" + std::to_string(r.zero_rows);
  out += ",\"fallback\":" + std::to_string(r.fallback);
  out += ",\"ok\":" + std::to_string(r.ok);
  out += "}\n";
}

/// Minimal async-signal-safe line writer: stack buffer + write(2).
/// Formatting is hand-rolled (snprintf is not on the signal-safe
/// list on every libc).
struct SigWriter {
  int fd;
  char buf[768];
  size_t len = 0;

  explicit SigWriter(int fd_in) : fd(fd_in) {}

  void Flush() {
    size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    len = 0;
  }
  void Raw(const char* s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (len == sizeof(buf)) Flush();
      buf[len++] = s[i];
    }
  }
  void Str(const char* s) { Raw(s, std::strlen(s)); }
  void U64(uint64_t v) {
    char tmp[24];
    size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Raw(&tmp[--n], 1);
  }
  void Hex(uint64_t v) {
    Str("0x");
    char tmp[20];
    size_t n = 0;
    do {
      const uint64_t d = v & 0xF;
      tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + (d - 10));
      v >>= 4;
    } while (v != 0);
    while (n > 0) Raw(&tmp[--n], 1);
  }
  /// Quoted string, dropping characters that would need escaping
  /// (request ids are expected to be plain tokens).
  void QuotedId(const char* s) {
    Raw("\"", 1);
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        continue;
      }
      Raw(&c, 1);
    }
    Raw("\"", 1);
  }
};

void WriteAuditSignalSafe(SigWriter& w, const AuditRecord& r) {
  w.Str("{\"type\":\"audit\",\"seq\":");
  w.U64(r.seq);
  w.Str(",\"request_id\":");
  w.QuotedId(r.request_id);
  w.Str(",\"request_seq\":");
  w.U64(r.request_seq);
  w.Str(",\"fingerprint\":\"");
  w.Hex(r.plan_fingerprint);
  w.Str("\",\"mode\":");
  w.QuotedId(r.mode);
  w.Str(",\"panel_width\":");
  w.U64(r.panel_width);
  w.Str(",\"isa\":");
  w.U64(r.isa);
  w.Str(",\"rows\":");
  w.U64(r.rows);
  w.Str(",\"latency_us\":");
  w.U64(r.latency_us);
  w.Str(",\"zero_rows\":");
  w.U64(r.zero_rows);
  w.Str(",\"fallback\":");
  w.U64(r.fallback);
  w.Str(",\"ok\":");
  w.U64(r.ok);
  w.Str("}\n");
}

void CrashHandler(int sig) {
  if (!g_fatal_dumped.exchange(true)) {
    const char* path = g_dump_path;  // initialized before installation
    if (path[0] != '\0') {
      const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FlightRecorder::Global().DumpToFdSignalSafe(fd);
        ::close(fd);
      }
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(AuditRecord record) {
  const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  record.seq = i + 1;
  const RequestToken& req = CurrentRequest();
  record.request_seq = req.seq;
  std::memcpy(record.request_id, req.id, sizeof(record.request_id));
  Slot& slot = slots_[i % kCapacity];
  // Per-slot seqlock: odd stamp while the words are in flux, even (and
  // derived from the ordinal) once published. A reader whose acquire
  // load sees any new word also sees the odd stamp, so a torn copy
  // never passes its second stamp check. The writer claims the slot by
  // CAS from a published stamp of an earlier lap (or 0): a writer that
  // finds the slot mid-write or already claimed by a later ordinal
  // (its ordinal was lapped) drops its record instead of interleaving
  // words with the other writer behind an even, stable stamp. Stamps
  // only grow, so the CAS cannot be fooled by ABA.
  uint64_t seen = slot.stamp.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 || seen > 2 * i ||
      !slot.stamp.compare_exchange_strong(seen, 2 * i + 1,
                                          std::memory_order_relaxed)) {
    return;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(&record);
  for (size_t w = 0; w < kRecordWords; ++w) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + w * sizeof(word), sizeof(word));
    slot.words[w].store(word, std::memory_order_release);
  }
  slot.stamp.store(2 * i + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(size_t i, AuditRecord* out) const {
  const Slot& slot = slots_[i];
  const uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return false;
  uint64_t words[kRecordWords];
  for (size_t w = 0; w < kRecordWords; ++w) {
    words[w] = slot.words[w].load(std::memory_order_acquire);
  }
  if (slot.stamp.load(std::memory_order_relaxed) != s1) return false;
  std::memcpy(out, words, sizeof(words));
  return true;
}

std::vector<AuditRecord> FlightRecorder::Collect() const {
  std::vector<AuditRecord> out;
  out.reserve(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    AuditRecord r;
    if (ReadSlot(i, &r)) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const AuditRecord& a, const AuditRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint64_t FlightRecorder::TotalRecorded() const {
  return next_.load(std::memory_order_relaxed);
}

bool FlightRecorder::DumpToFile(const std::string& path, const char* reason,
                                std::string* error) const {
  std::string out = "{\"type\":\"header\",\"geoalign_flight_recorder\":1";
  out += ",\"reason\":";
  AppendEscapedJson(out, reason);
  out += ",\"total_recorded\":" + std::to_string(TotalRecorded());
  out += ",\"in_flight\":[";
  char ids[16][RequestToken::kMaxIdLength + 1];
  const size_t n = internal::SnapshotInFlightRequests(ids, 16);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    AppendEscapedJson(out, ids[i]);
  }
  out += "]}\n";

  for (const AuditRecord& r : Collect()) AppendAuditJson(out, r);

  std::string metrics_line = "{\"type\":\"metrics\",\"snapshot\":";
  metrics_line += ToJsonLine(MetricsRegistry::Global().Snapshot());
  metrics_line += "}\n";
  out += metrics_line;

  // Refresh the signal path's cached metrics line (the old line is
  // leaked on purpose; see g_metrics_cache).
  char* cached = new char[metrics_line.size() + 1];
  std::memcpy(cached, metrics_line.c_str(), metrics_line.size() + 1);
  g_metrics_cache.store(cached, std::memory_order_release);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = std::fclose(f) == 0 && written == out.size();
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

void FlightRecorder::DumpToFdSignalSafe(int fd) const {
  SigWriter w(fd);
  w.Str("{\"type\":\"header\",\"geoalign_flight_recorder\":1");
  w.Str(",\"reason\":\"signal\",\"total_recorded\":");
  w.U64(TotalRecorded());
  w.Str(",\"in_flight\":[");
  char ids[16][RequestToken::kMaxIdLength + 1];
  const size_t n = internal::SnapshotInFlightRequests(ids, 16);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) w.Str(",");
    w.QuotedId(ids[i]);
  }
  w.Str("]}\n");

  // One pass in seq order would need a sort; dump slots oldest-ish
  // first instead: slot (next % capacity) onward is the oldest when
  // the ring has wrapped.
  const uint64_t next = next_.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kCapacity; ++k) {
    const size_t i = (next + k) % kCapacity;
    AuditRecord r;
    if (ReadSlot(i, &r)) WriteAuditSignalSafe(w, r);
  }

  const char* metrics = g_metrics_cache.load(std::memory_order_acquire);
  if (metrics != nullptr) w.Str(metrics);
  w.Flush();
}

void FlightRecorder::Clear() {
  for (Slot& s : slots_) s.stamp.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
}

void SetFlightRecorderDumpPath(std::string_view path) {
  InitPathFromEnvOnce();
  const size_t n =
      path.size() < sizeof(g_dump_path) - 1 ? path.size()
                                            : sizeof(g_dump_path) - 1;
  std::memcpy(g_dump_path, path.data(), n);
  g_dump_path[n] = '\0';
}

const char* FlightRecorderDumpPath() {
  InitPathFromEnvOnce();
  return g_dump_path;
}

void InstallCrashHandlers() {
  InitPathFromEnvOnce();
  static const bool installed = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = CrashHandler;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
      sigaction(sig, &action, nullptr);
    }
    return true;
  }();
  (void)installed;
}

void NotifyFatal() {
  if (g_fatal_dumped.exchange(true)) return;
  const char* path = FlightRecorderDumpPath();
  if (path[0] == '\0') return;
  std::string err;
  // Best-effort: the process is about to abort, so the error (if any)
  // has nowhere to go.
  (void)FlightRecorder::Global().DumpToFile(path, "fatal", &err);
}

}  // namespace geoalign::obs
