#ifndef GEOALIGN_OBS_FLIGHT_RECORDER_H_
#define GEOALIGN_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/request_context.h"

// Always-on flight recorder: a fixed-size, lock-free ring of the most
// recent execute audit records plus the last rendered metrics
// snapshot, dumped as JSONL to a file
//
//   - on demand (DumpToFile / geoalign_flight_recorder_dump /
//     geoalign_cli --flight-recorder-out),
//   - on GEOALIGN_CHECK / GEOALIGN_LOG(Fatal) failure (NotifyFatal,
//     called from common/logging.cc just before abort), and
//   - from a fatal-signal handler (InstallCrashHandlers), using only
//     async-signal-safe writes.
//
// Unlike metrics and spans, recording is NOT gated on obs::Enabled():
// the recorder exists precisely for the runs nobody thought to
// instrument. One Record is a seqlock-stamped copy of the record's
// 64-bit words (~tens of ns per plan execute, which itself costs
// microseconds to seconds).
//
// Dump format: one JSON object per line.
//   {"type":"header","reason":"demand|fatal|signal","in_flight":[ids]}
//   {"type":"audit","seq":N,"request_id":"...","request_seq":N,
//    "fingerprint":"0x...","mode":"panel|panel_dm",
//    "panel_width":N,"isa":N,"rows":N,"latency_us":N,"zero_rows":N,
//    "fallback":N,"ok":0|1}
//   {"type":"metrics", ...one-line MetricsSnapshot JSON...}

namespace geoalign::obs {

/// One execute's worth of audit context. Plain data, fixed size, so a
/// record can be copied out of the ring under a seqlock and formatted
/// from a signal handler. `request_*`, `seq` are stamped by Record.
struct AuditRecord {
  uint64_t seq = 0;          ///< monotonically increasing record ordinal
  uint64_t request_seq = 0;  ///< RequestToken::seq active at Record time
  char request_id[RequestToken::kMaxIdLength + 1] = {0};
  uint64_t plan_fingerprint = 0;
  char mode[16] = {0};     ///< "panel" (aggregates) or "panel_dm" (kFullDm)
  uint32_t panel_width = 0;  ///< columns that reached the kernel
  uint32_t isa = 0;          ///< sparse::simd ISA ordinal
  uint64_t rows = 0;         ///< source units touched
  uint64_t latency_us = 0;
  uint64_t zero_rows = 0;
  uint32_t fallback = 0;  ///< DM fallback rebuilds triggered
  uint32_t ok = 1;
};

/// Fixed-capacity ring of AuditRecords. Writers take ordinals with one
/// fetch_add, claim the ordinal's slot by CAS on its seqlock stamp and
/// publish with a release store; readers (and the signal-time dumper)
/// detect torn slots and skip them, so neither side ever blocks. A
/// writer whose slot is still being written by an earlier lap, or was
/// already claimed by a later one, drops its record.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 256;

  static FlightRecorder& Global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Stamps `record` with the next ordinal and the current thread's
  /// request identity, then publishes it into the ring (or drops it
  /// when its slot is contended, see the class comment).
  void Record(AuditRecord record);

  /// Consistent copies of the currently readable records, oldest
  /// first. Skips slots being written at read time.
  std::vector<AuditRecord> Collect() const;

  /// Total ordinals handed out, dropped records included
  /// (>= Collect().size()).
  uint64_t TotalRecorded() const;

  /// Renders the full JSONL dump (header with `reason`, audit lines,
  /// fresh metrics line) and writes it to `path`. Not signal-safe.
  bool DumpToFile(const std::string& path, const char* reason,
                  std::string* error) const;

  /// Async-signal-safe dump to an open descriptor: header, audit
  /// lines, and the cached metrics line (last one rendered by
  /// DumpToFile), using only write(2) and stack buffers.
  void DumpToFdSignalSafe(int fd) const;

  /// Drops all records (test isolation).
  void Clear();

 private:
  /// The record travels as atomic words so a reader racing a writer
  /// sees torn words (caught by the stamp), never a data race.
  static constexpr size_t kRecordWords = sizeof(AuditRecord) / sizeof(uint64_t);
  static_assert(sizeof(AuditRecord) == kRecordWords * sizeof(uint64_t),
                "AuditRecord must be a whole number of 64-bit words");
  static_assert(std::is_trivially_copyable_v<AuditRecord>);

  struct Slot {
    /// 0 = empty; odd = write in progress; even nonzero = published.
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> words[kRecordWords] = {};
  };

  bool ReadSlot(size_t i, AuditRecord* out) const;

  Slot slots_[kCapacity];
  std::atomic<uint64_t> next_{0};
};

/// Configures where NotifyFatal / crash handlers dump (also read from
/// the GEOALIGN_FLIGHT_RECORDER environment variable at first use).
/// Empty disables fatal/crash dumps. Stored in a fixed buffer so the
/// signal path never allocates.
void SetFlightRecorderDumpPath(std::string_view path);
/// The configured dump path ("" when none).
const char* FlightRecorderDumpPath();

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT handlers that dump
/// the recorder to the configured path, then re-raise with the default
/// disposition. Idempotent.
void InstallCrashHandlers();

/// Called by the logging layer on a fatal message, before abort().
/// Dumps once to the configured path (no-op when none is set).
void NotifyFatal();

}  // namespace geoalign::obs

#endif  // GEOALIGN_OBS_FLIGHT_RECORDER_H_
