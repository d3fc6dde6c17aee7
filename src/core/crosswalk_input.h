#ifndef GEOALIGN_CORE_CROSSWALK_INPUT_H_
#define GEOALIGN_CORE_CROSSWALK_INPUT_H_

#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "linalg/vector_ops.h"
#include "sparse/csr_matrix.h"
#include "sparse/prepared_reference.h"

namespace geoalign::core {

/// One reference attribute α_r: its aggregate vector on the source
/// units plus its disaggregation matrix DM_r between source and target
/// units (paper §3.3). The matrix rows must (approximately) sum to the
/// source aggregates — `CrosswalkInput::Validate` checks this.
struct ReferenceAttribute {
  std::string name;
  linalg::Vector source_aggregates;  ///< a^s_r, one entry per source unit
  sparse::CsrMatrix disaggregation;  ///< DM_r, |U^s| x |U^t|

  /// a^t_r = column sums of DM_r, handy for metrics/diagnostics.
  linalg::Vector TargetAggregates() const {
    return disaggregation.ColSums();
  }
};

/// Everything an aggregate-interpolation method may consume: the
/// objective attribute's source aggregates and the available reference
/// attributes (Algorithm 1's inputs).
struct CrosswalkInput {
  linalg::Vector objective_source;  ///< a^s_o
  std::vector<ReferenceAttribute> references;

  size_t NumSourceUnits() const { return objective_source.size(); }
  size_t NumTargetUnits() const {
    return references.empty() ? 0 : references[0].disaggregation.cols();
  }

  /// Checks structural consistency:
  ///  - at least one reference; all shapes agree;
  ///  - all aggregates and DM entries non-negative;
  ///  - each DM_r's rows sum to a^s_r within `consistency_tol`
  ///    (relative), the precondition for exact volume preservation.
  Status Validate(double consistency_tol = 1e-6) const;

  /// Returns the index of the reference named `name`.
  Result<size_t> FindReference(const std::string& name) const;

  /// Copy of this input restricted to the given reference indices
  /// (order preserved as listed). Used by leave-n-out experiments.
  Result<CrosswalkInput> WithReferenceSubset(
      const std::vector<size_t>& keep) const;
};

/// Zero-copy flavor of ReferenceAttribute: the aggregate column is a
/// borrowed view (optionally guarded by a keepalive) and the DM is
/// typically a borrowed-mode CsrMatrix. Identical to — and directly
/// consumed as — the sparse layer's Prepare input, and the input of the
/// one CrosswalkPlan::Compile body.
using ReferenceAttributeView = sparse::ReferenceDataView;

/// The per-reference half of CrosswalkInput::Validate: aggregates and
/// DM entries non-negative and finite, and each DM row summing to its
/// source aggregate within `consistency_tol` (relative). Shapes are the
/// caller's to check. Every surface that validates references (the C
/// ABI included) calls this, so their messages are byte-identical.
Status ValidateReference(const std::string& name,
                         common::ColumnView source_aggregates,
                         const sparse::CsrMatrix& disaggregation,
                         double consistency_tol = 1e-6);

/// Borrowed views of owning references: names are copied, no aggregate
/// column or CSR array is. For compiles whose plan dies before
/// `references` does (a one-shot Crosswalk); the views must not outlive
/// `references`.
std::vector<ReferenceAttributeView> BorrowReferences(
    const std::vector<ReferenceAttribute>& references);

}  // namespace geoalign::core

#endif  // GEOALIGN_CORE_CROSSWALK_INPUT_H_
