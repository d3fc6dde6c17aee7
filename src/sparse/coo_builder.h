#ifndef GEOALIGN_SPARSE_COO_BUILDER_H_
#define GEOALIGN_SPARSE_COO_BUILDER_H_

#include <vector>

#include "sparse/csr_matrix.h"

namespace geoalign::sparse {

/// Accumulates (row, col, value) triplets and compiles them into a
/// `CsrMatrix`. Duplicate coordinates are summed, matching the way
/// overlays accumulate aggregates into disaggregation-matrix cells.
/// This is the one COO -> CSR rule of the library: entries sorted by
/// (row, col), duplicates summed from 0.0 in insertion order, exact-zero
/// sums dropped.
class CooBuilder {
 public:
  CooBuilder(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}

  /// Adds `value` at (r, c); values at repeated coordinates add up.
  /// Coordinates must be in range.
  void Add(size_t r, size_t c, double value);

  /// Number of accumulated triplets (before deduplication).
  size_t triplet_count() const { return entries_.size(); }

  /// Sorts (stably, by counting), merges duplicates in insertion order,
  /// drops exact-zero sums, and produces the CSR matrix in
  /// O(triplets + rows + cols). The builder is left empty and reusable.
  CsrMatrix Build();

 private:
  struct Entry {
    size_t row;
    size_t col;
    double value;
  };

  size_t rows_;
  size_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_COO_BUILDER_H_
