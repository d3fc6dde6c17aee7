#include "sparse/sparse_ops.h"

#include <cmath>

#include "common/logging.h"
#include "sparse/kernel_grains.h"

namespace geoalign::sparse {

void DivideRowsOrZero(CsrMatrix& m, const linalg::Vector& denom,
                      double zero_tol, std::vector<size_t>* zero_rows,
                      common::ThreadPool* pool) {
  GEOALIGN_CHECK(denom.size() == m.rows())
      << "DivideRowsOrZero: size mismatch";
  // mutable_values() first: it materializes an owned copy of a
  // borrowed matrix, so the row_ptr span below views the final storage.
  std::vector<double>& values = m.mutable_values();
  common::ConstSpan<size_t> row_ptr = m.row_ptr();
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(m.rows(), kRowScaleGrain);
  std::vector<std::vector<size_t>> chunk_zero(chunks.size());
  common::ParallelForChunks(pool, chunks.size(), [&](size_t ci) {
    for (size_t r = chunks[ci].begin; r < chunks[ci].end; ++r) {
      double scale;
      if (std::fabs(denom[r]) <= zero_tol) {
        chunk_zero[ci].push_back(r);
        scale = 0.0;
      } else {
        scale = 1.0 / denom[r];
      }
      for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        values[k] *= scale;
      }
    }
  });
  if (zero_rows != nullptr) {
    // Chunks are in ascending row order, so this concatenation matches
    // the sequential reporting order.
    for (const std::vector<size_t>& z : chunk_zero) {
      zero_rows->insert(zero_rows->end(), z.begin(), z.end());
    }
  }
  m.Prune(0.0);
}

}  // namespace geoalign::sparse
