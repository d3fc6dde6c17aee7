#ifndef GEOALIGN_SPARSE_SPARSE_OPS_H_
#define GEOALIGN_SPARSE_SPARSE_OPS_H_

#include <vector>

#include "common/thread_pool.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// alpha * a + beta * b elementwise (shapes must match).
Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b,
                      double alpha = 1.0, double beta = 1.0);

/// Weighted sum  sum_k weights[k] * mats[k]  of same-shaped matrices.
/// This is the "Σ β_k DM_rk" inner step of paper Eq. 14; implemented
/// as one row-merge pass over all operands rather than repeated
/// pairwise adds. With a pool the row chunks run in parallel; every
/// row is computed self-contained in the sequential operand order, so
/// the result is bit-identical for any pool size (including none).
Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights,
                              common::ThreadPool* pool = nullptr);

/// Divides every entry of row r by denom[r]. Rows whose denominator is
/// (absolutely) below `zero_tol` are set entirely to zero and reported
/// in `zero_rows` when non-null — the paper's "otherwise 0" branch of
/// Eq. 14. Parallel over row chunks; `zero_rows` comes back in
/// ascending row order and all output bits match the sequential path.
void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows,
                      common::ThreadPool* pool = nullptr);

/// Column sums (paper Eq. 17 re-aggregation) with the deterministic
/// chunked reduction: one partial column-sum vector per fixed row
/// chunk, combined in chunk-index order. Bit-identical for every pool
/// size; equals CsrMatrix::ColSums() whenever a single chunk covers
/// the matrix.
linalg::Vector ColSumsDeterministic(const CsrMatrix& m,
                                    common::ThreadPool* pool = nullptr);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_SPARSE_OPS_H_
