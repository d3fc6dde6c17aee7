#include "oracles/sparse_oracle.h"

#include <algorithm>
#include <utility>

#include "common/float_eq.h"
#include "sparse/kernel_grains.h"

namespace geoalign::sparse {

namespace {

// WeightedSum's row-chunk grain. kColSumGrain (sparse/kernel_grains.h)
// is shared with the plan's Eq. 14/17 kernel, which must chunk exactly
// like ColSumsDeterministic to stay bit-identical.
constexpr size_t kRowMergeGrain = 128;

// Private per-chunk output of a row-parallel merge kernel.
struct ChunkOut {
  std::vector<size_t> cols;
  std::vector<double> vals;
  std::vector<size_t> row_nnz;  // entries per row in this chunk
};

// Stitches per-chunk outputs back into one CSR matrix in chunk order —
// WeightedSum's deterministic combine step.
Result<CsrMatrix> StitchRowChunks(size_t rows, size_t cols,
                                  std::vector<ChunkOut>& parts) {
  std::vector<size_t> out_rowptr(rows + 1, 0);
  size_t total_nnz = 0;
  size_t r = 0;
  for (const ChunkOut& part : parts) {
    for (size_t nnz : part.row_nnz) {
      total_nnz += nnz;
      out_rowptr[++r] = total_nnz;
    }
  }
  std::vector<size_t> out_cols;
  std::vector<double> out_vals;
  out_cols.reserve(total_nnz);
  out_vals.reserve(total_nnz);
  for (ChunkOut& part : parts) {
    out_cols.insert(out_cols.end(), part.cols.begin(), part.cols.end());
    out_vals.insert(out_vals.end(), part.vals.begin(), part.vals.end());
  }
  return CsrMatrix::FromCsrArrays(rows, cols, std::move(out_rowptr),
                                  std::move(out_cols), std::move(out_vals));
}

}  // namespace

Result<CsrMatrix> WeightedSum(const std::vector<const CsrMatrix*>& mats,
                              const linalg::Vector& weights,
                              common::ThreadPool* pool) {
  if (mats.empty()) {
    return Status::InvalidArgument("WeightedSum: no matrices");
  }
  if (mats.size() != weights.size()) {
    return Status::InvalidArgument("WeightedSum: weight count mismatch");
  }
  size_t rows = mats[0]->rows();
  size_t cols = mats[0]->cols();
  for (const CsrMatrix* m : mats) {
    if (m->rows() != rows || m->cols() != cols) {
      return Status::InvalidArgument("WeightedSum: shape mismatch");
    }
  }

  // Each chunk merges its own row range into private output arrays —
  // rows are self-contained, so chunking changes no bit of the result.
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(rows, kRowMergeGrain);
  std::vector<ChunkOut> parts(chunks.size());
  common::ParallelForChunks(pool, chunks.size(), [&](size_t ci) {
    const common::ChunkRange& range = chunks[ci];
    ChunkOut& part = parts[ci];
    part.row_nnz.reserve(range.end - range.begin);
    // Scatter-gather row merge using a dense accumulator over columns
    // touched in the current row.
    std::vector<double> acc(cols, 0.0);
    std::vector<size_t> touched;
    for (size_t r = range.begin; r < range.end; ++r) {
      touched.clear();
      for (size_t mi = 0; mi < mats.size(); ++mi) {
        double w = weights[mi];
        if (ExactlyZero(w)) continue;
        CsrMatrix::RowView row = mats[mi]->Row(r);
        for (size_t k = 0; k < row.size; ++k) {
          size_t c = row.cols[k];
          if (ExactlyZero(acc[c])) touched.push_back(c);
          acc[c] += w * row.values[k];
        }
      }
      std::sort(touched.begin(), touched.end());
      size_t before = part.cols.size();
      for (size_t c : touched) {
        if (!ExactlyZero(acc[c])) {
          part.cols.push_back(c);
          part.vals.push_back(acc[c]);
        }
        acc[c] = 0.0;
      }
      part.row_nnz.push_back(part.cols.size() - before);
    }
  });
  return StitchRowChunks(rows, cols, parts);
}

linalg::Vector ColSumsDeterministic(const CsrMatrix& m,
                                    common::ThreadPool* pool) {
  common::ConstSpan<size_t> row_ptr = m.row_ptr();
  common::ConstSpan<size_t> col_idx = m.col_idx();
  common::ConstSpan<double> values = m.values();
  size_t cols = m.cols();
  return common::ParallelReduceOrdered<linalg::Vector>(
      pool, m.rows(), kColSumGrain, linalg::Vector(cols, 0.0),
      [&](size_t begin, size_t end) {
        linalg::Vector part(cols, 0.0);
        for (size_t r = begin; r < end; ++r) {
          for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            part[col_idx[k]] += values[k];
          }
        }
        return part;
      },
      [](linalg::Vector& acc, linalg::Vector&& part) {
        for (size_t c = 0; c < acc.size(); ++c) acc[c] += part[c];
      });
}

}  // namespace geoalign::sparse
