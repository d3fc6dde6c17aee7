#ifndef GEOALIGN_SPARSE_PREPARED_REFERENCE_H_
#define GEOALIGN_SPARSE_PREPARED_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "linalg/vector_ops.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// Raw per-reference inputs to PreparedReferenceSet::Prepare: one
/// reference attribute α_r as the core layer sees it, without any core
/// dependency (core depends on sparse, never the reverse).
struct ReferenceData {
  std::string name;
  linalg::Vector source_aggregates;  ///< a^s_r, one entry per source unit
  CsrMatrix disaggregation;          ///< DM_r, |U^s| x |U^t|
};

/// Zero-copy flavor of ReferenceData: the aggregate column is a
/// borrowed view and the DM is typically in borrowed mode
/// (CsrMatrix::FromBorrowed). `keepalive` optionally guards the
/// aggregate memory; the DM carries its own keepalive. The viewed
/// memory must stay alive for the lifetime of whatever Prepare
/// produces (keepalives make that automatic for ref-counted hosts).
struct ReferenceDataView {
  std::string name;
  common::ColumnView source_aggregates;
  CsrMatrix disaggregation;
  std::shared_ptr<const void> keepalive;
};

/// True when every reference's DM has the first one's shape and
/// row_ptr/col_idx arrays. Prepare keeps such a set as it is and
/// scatters any other onto the union of its patterns; the owning
/// Compile path asks first, so it never deep-copies a DM that is about
/// to be scattered. `Reference` is any type with a `disaggregation`
/// CsrMatrix member.
template <typename Reference>
bool SharesOneStructure(const std::vector<Reference>& references) {
  for (const Reference& ref : references) {
    if (!ref.disaggregation.SameStructure(references[0].disaggregation)) {
      return false;
    }
  }
  return true;
}

/// One reference after objective-independent compilation: everything
/// Eq. 14/15 need that does not depend on the objective column,
/// computed once and immutable afterwards.
///
/// The disaggregation matrix is kept RAW (not pre-divided by the
/// normalizer): ScaleMode::kNormalized folds 1/normalizer into the
/// per-execute effective weights instead, because IEEE division does
/// not commute bit-exactly with the weighted row merge — pre-scaling
/// the values would break the bit-identity contract between the
/// compiled path and the legacy per-call path.
///
/// `source_aggregates` is a view: over caller memory on the zero-copy
/// ingest path (guarded by `aggregates_keepalive` when provided), or
/// over a buffer adopted from the owning path. Either way the bytes
/// are never duplicated by Prepare itself.
struct PreparedReference {
  std::string name;
  common::ColumnView source_aggregates;  ///< a^s_r (borrowed view)
  std::shared_ptr<const void> aggregates_keepalive;
  /// DM_r, raw values, on the set's shared execute structure.
  CsrMatrix disaggregation;
  linalg::Vector normalized_aggregates;  ///< a^s_r / max_i a^s_r[i] (Eq. 15 column)
  double normalizer = 1.0;               ///< max_i a^s_r[i]
};

/// An immutable, shareable set of prepared references — the sparse
/// half of a compiled CrosswalkPlan. Every prepared DM shares one CSR
/// structure, which is what the executor's Eq. 14/17 kernel
/// (FusedAggregatesPanel) requires:
///  - DMs that already share one structure (e.g. all derived from the
///    same overlay) are kept as they are — borrowed DMs stay borrowed;
///  - otherwise every DM is scattered onto the union of the patterns
///    (the paper's §4.3 overlay cells): one shared row_ptr/col_idx,
///    built and validated once, plus one values array per reference
///    with an explicit +0.0 where that reference has no entry. The
///    arrays are owned by the set through one keepalive.
///
/// The union is exact: aggregates and β are validated non-negative
/// and finite (and NormalizeByMax rejects a max whose reciprocal
/// overflows), so every effective weight β_k/normalizer_k is finite
/// and each +0.0 filler adds an exact +0.0 to an accumulator that
/// starts at +0.0 — no partial sum, denominator or column sum changes
/// a bit, and the kernels prune exact zeros from any materialized DM.
///
/// Move-only: the cached DM pointer vector aliases the prepared
/// references, which stay valid across moves of the owning vector but
/// not across copies.
class PreparedReferenceSet {
 public:
  /// Validates shapes, max-normalizes every aggregate vector (the
  /// ScaleMode::kNormalized / Eq. 15 preprocessing; errors mirror the
  /// legacy per-call path's NormalizeByMax failures), fingerprints the
  /// set over the caller's arrays, and scatters unaligned DMs onto the
  /// union structure.
  ///
  /// Zero-copy contract: the aggregate views are referenced, never
  /// duplicated — the prepared set reads caller memory through them
  /// for its whole lifetime. Borrowed DMs that already share one
  /// structure stay borrowed; scattered DMs are read only during
  /// Prepare.
  static Result<PreparedReferenceSet> Prepare(
      std::vector<ReferenceDataView> references);

  /// Owning adapter: moves each aggregate vector into a ref-counted
  /// keepalive (one move, no byte copy) and forwards to the view
  /// Prepare. Behavior and error messages are identical.
  static Result<PreparedReferenceSet> Prepare(
      std::vector<ReferenceData> references);

  PreparedReferenceSet(PreparedReferenceSet&&) = default;
  PreparedReferenceSet& operator=(PreparedReferenceSet&&) = default;
  PreparedReferenceSet(const PreparedReferenceSet&) = delete;
  PreparedReferenceSet& operator=(const PreparedReferenceSet&) = delete;

  size_t size() const { return refs_.size(); }
  size_t num_source() const { return num_source_; }
  size_t num_target() const { return num_target_; }
  const PreparedReference& reference(size_t k) const { return refs_[k]; }

  /// Pointers to every reference's raw DM, in reference order — the
  /// operand list of the structure-sharing execute kernels.
  const std::vector<const CsrMatrix*>& dms() const { return dms_; }

  /// True when all DMs share identical row_ptr/col_idx arrays — always,
  /// after Prepare (see the class comment).
  bool aligned() const { return true; }

  /// Content fingerprint (names, aggregates, CSR arrays as the caller
  /// passed them, before any union scatter). Read by the plan's audit
  /// record and by geoalign_plan_fingerprint.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  PreparedReferenceSet() = default;

  std::vector<PreparedReference> refs_;
  std::vector<const CsrMatrix*> dms_;
  uint64_t fingerprint_ = 0;
  size_t num_source_ = 0;
  size_t num_target_ = 0;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_PREPARED_REFERENCE_H_
