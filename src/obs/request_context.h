#ifndef GEOALIGN_OBS_REQUEST_CONTEXT_H_
#define GEOALIGN_OBS_REQUEST_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string_view>

// Request-scoped context: a per-thread request identity that execute
// paths stamp onto trace spans (SpanEvent::request_seq) and flight-
// recorder audit records (AuditRecord::request_id), so one slow or
// crashing request can be attributed end to end.
//
// The context is ALWAYS on — unlike metrics/spans it is not gated on
// obs::Enabled(), because the flight recorder (obs/flight_recorder.h)
// must be able to name in-flight requests in a post-mortem dump even
// when telemetry is off. Establishing a scope is two thread-local
// stores plus (for originating scopes) one slot claim; ~tens of ns.
//
// Standard-library-only: this header sits below geoalign_common in
// the layering, like the rest of src/obs/.

namespace geoalign::obs {

/// Plain-data handle to an active request, safe to copy across
/// threads. `seq` is a process-unique nonzero ordinal (0 = no
/// request); `id` is the NUL-terminated human-readable request id.
struct RequestToken {
  static constexpr size_t kMaxIdLength = 55;
  uint64_t seq = 0;
  char id[kMaxIdLength + 1] = {0};
};

/// RAII request scope. While alive, CurrentRequest() on this thread
/// returns its token; the previous token is restored on destruction,
/// so scopes nest. Three ways to open one:
///
///   obs::RequestScope scope;              // generated id "req-<n>"
///   obs::RequestScope scope("tenant-42"); // caller-supplied id
///   obs::RequestScope scope(token);       // re-establish a request on
///                                         // a pool worker thread
///
/// Originating scopes (the first two forms) additionally register the
/// request in a fixed-size in-flight table that the flight recorder
/// reads — signal-safely — when dumping. The token form does not: it
/// only propagates identity, so a fan-out across N workers still shows
/// as one in-flight request.
class RequestScope {
 public:
  /// Opens a scope with a generated id ("req-<seq>").
  RequestScope();
  /// Opens a scope with a caller-supplied id (truncated to
  /// RequestToken::kMaxIdLength bytes; empty means "generate one").
  explicit RequestScope(std::string_view id);
  /// Re-establishes an existing request on this thread (cross-thread
  /// propagation into pool workers). A zero token is a no-op scope.
  explicit RequestScope(const RequestToken& token);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  const char* id() const;
  uint64_t seq() const;

 private:
  void Establish(std::string_view id, bool claim_slot);

  RequestToken prev_;
  RequestToken token_;
  int slot_ = -1;  ///< in-flight table slot, -1 when none claimed
};

/// The request active on this thread (seq == 0 when none).
const RequestToken& CurrentRequest();
/// Shorthand for CurrentRequest().seq.
uint64_t CurrentRequestSeq();

/// Opens a generated-id RequestScope only if this thread has none —
/// serving entry points (ExecuteMany behind RealignMany, the CLI)
/// use this so audit records always carry an id while caller-supplied
/// scopes still win.
class EnsureRequestScope {
 public:
  EnsureRequestScope() {
    if (CurrentRequestSeq() == 0) scope_.emplace();
  }

 private:
  std::optional<RequestScope> scope_;
};

namespace internal {

/// Copies the ids of currently in-flight (originating) requests into
/// `out[0..max)` as NUL-terminated strings of at most
/// RequestToken::kMaxIdLength + 1 bytes each; returns how many were
/// written. Async-signal-safe: plain atomic loads and byte copies.
size_t SnapshotInFlightRequests(char (*out)[RequestToken::kMaxIdLength + 1],
                                size_t max);

}  // namespace internal

}  // namespace geoalign::obs

#endif  // GEOALIGN_OBS_REQUEST_CONTEXT_H_
