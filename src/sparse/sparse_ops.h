#ifndef GEOALIGN_SPARSE_SPARSE_OPS_H_
#define GEOALIGN_SPARSE_SPARSE_OPS_H_

#include <vector>

#include "common/thread_pool.h"
#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// Divides every entry of row r by denom[r]. Rows whose denominator is
/// (absolutely) below `zero_tol` are set entirely to zero and reported
/// in `zero_rows` when non-null — the paper's "otherwise 0" branch of
/// Eq. 14. Parallel over row chunks; `zero_rows` comes back in
/// ascending row order and all output bits match the sequential path.
void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows,
                      common::ThreadPool* pool = nullptr);

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_SPARSE_OPS_H_
