#ifndef GEOALIGN_TESTS_ORACLES_SPARSE_ORACLE_H_
#define GEOALIGN_TESTS_ORACLES_SPARSE_ORACLE_H_

// The general sparse kernels of the materializing Eq. 14/17 pipeline
// (CrosswalkUncompiled). The product path runs the one fused panel
// kernel (sparse/fused_execute.h) instead; these stay as the oracle it
// is proven against, bit for bit. Test-only: linked by geoalign_tests
// and the benches, never by the shipped libraries.

#include <vector>

#include "common/thread_pool.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// Weighted sum  sum_k weights[k] * mats[k]  of same-shaped matrices.
/// This is the "Σ β_k DM_rk" inner step of paper Eq. 14; implemented
/// as one row-merge pass over all operands rather than repeated
/// pairwise adds. With a pool the row chunks run in parallel; every
/// row is computed self-contained in the sequential operand order, so
/// the result is bit-identical for any pool size (including none).
Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights,
                              common::ThreadPool* pool = nullptr);

/// Column sums (paper Eq. 17 re-aggregation) with the deterministic
/// chunked reduction: one partial column-sum vector per fixed row
/// chunk, combined in chunk-index order. Bit-identical for every pool
/// size; equals CsrMatrix::ColSums() whenever a single chunk covers
/// the matrix.
linalg::Vector ColSumsDeterministic(const CsrMatrix& m,
                                    common::ThreadPool* pool = nullptr);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_TESTS_ORACLES_SPARSE_ORACLE_H_
