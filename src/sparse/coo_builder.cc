#include "sparse/coo_builder.h"

#include <numeric>

#include "common/logging.h"
#include "common/float_eq.h"

namespace geoalign::sparse {

namespace {

// Places `in` into `out` stably by key(e) in [0, buckets).
template <typename E, typename Key>
void StableCountingSort(const std::vector<E>& in, size_t buckets, Key key,
                        std::vector<E>* out) {
  std::vector<size_t> next(buckets + 1, 0);
  for (const E& e : in) ++next[key(e) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  out->resize(in.size());
  for (const E& e : in) (*out)[next[key(e)]++] = e;
}

}  // namespace

void CooBuilder::Add(size_t r, size_t c, double value) {
  GEOALIGN_DCHECK(r < rows_ && c < cols_);
  entries_.push_back({r, c, value});
}

CsrMatrix CooBuilder::Build() {
  // Two stable counting passes, by column and then by row, leave rows
  // ascending, columns ascending within a row and equal coordinates in
  // insertion order, so duplicates sum in the order they were added.
  std::vector<Entry> by_col;
  StableCountingSort(entries_, cols_, [](const Entry& e) { return e.col; },
                     &by_col);
  StableCountingSort(by_col, rows_, [](const Entry& e) { return e.row; },
                     &entries_);
  CsrMatrix out(rows_, cols_);
  out.col_idx_.reserve(entries_.size());
  out.values_.reserve(entries_.size());
  size_t i = 0;
  for (size_t r = 0; r < rows_; ++r) {
    while (i < entries_.size() && entries_[i].row == r) {
      size_t c = entries_[i].col;
      double acc = 0.0;
      while (i < entries_.size() && entries_[i].row == r &&
             entries_[i].col == c) {
        acc += entries_[i].value;
        ++i;
      }
      if (!ExactlyZero(acc)) {
        out.col_idx_.push_back(c);
        out.values_.push_back(acc);
      }
    }
    out.row_ptr_[r + 1] = out.col_idx_.size();
  }
  entries_.clear();
  return out;
}

}  // namespace geoalign::sparse
