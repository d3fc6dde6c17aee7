#include "sparse/prepared_reference.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace geoalign::sparse {

namespace {

// Incremental 64-bit FNV-1a hash of the reference-set fingerprint.
// Spans (vectors convert implicitly) hash the same byte sequence
// whichever ingest path produced the data, so the fingerprint does not
// depend on whether the arrays are owned or borrowed.
class Fnv1a {
 public:
  void MixBytes(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ull;
    }
  }
  void MixSize(size_t v) {
    const uint64_t word = static_cast<uint64_t>(v);
    MixBytes(&word, sizeof(word));
  }
  void MixDoubles(common::ConstSpan<double> v) {
    MixSize(v.size());
    MixBytes(v.data(), v.size() * sizeof(double));
  }
  void MixSizes(common::ConstSpan<size_t> v) {
    MixSize(v.size());
    MixBytes(v.data(), v.size() * sizeof(size_t));
  }
  void MixString(const std::string& s) {
    MixSize(s.size());
    MixBytes(s.data(), s.size());
  }

  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// The union execute structure of an unaligned reference set, and every
// reference's values scattered onto it (reference k's array is
// values[k * nnz, (k + 1) * nnz)). Shared by all prepared DMs through
// one keepalive.
struct UnionArrays {
  std::vector<size_t> row_ptr;
  std::vector<size_t> col_idx;
  std::vector<double> values;
};

// Builds the union of the DMs' patterns (rows of sorted, unique column
// indices) and scatters each DM onto it, with +0.0 where a DM has no
// entry. Replaces every DM by a borrowed view of the union arrays.
Status ScatterOntoUnion(std::vector<ReferenceDataView>& references) {
  GEOALIGN_TRACE_SPAN("compile.union_structure");
  const size_t rows = references[0].disaggregation.rows();
  const size_t cols = references[0].disaggregation.cols();
  auto arrays = std::make_shared<UnionArrays>();
  std::vector<size_t>& row_ptr = arrays->row_ptr;
  std::vector<size_t>& col_idx = arrays->col_idx;
  row_ptr.assign(rows + 1, 0);
  // Scratch indexed by column: while building, the last row that took
  // the column; while scattering, the column's union position in the
  // current row.
  std::vector<size_t> by_col(cols, std::numeric_limits<size_t>::max());
  for (size_t r = 0; r < rows; ++r) {
    const size_t row_begin = col_idx.size();
    for (const ReferenceDataView& ref : references) {
      common::ConstSpan<size_t> rp = ref.disaggregation.row_ptr();
      common::ConstSpan<size_t> ci = ref.disaggregation.col_idx();
      for (size_t k = rp[r]; k < rp[r + 1]; ++k) {
        if (by_col[ci[k]] == r) continue;
        by_col[ci[k]] = r;
        col_idx.push_back(ci[k]);
      }
    }
    if (col_idx.size() - row_begin > 1) {
      std::sort(col_idx.begin() + static_cast<ptrdiff_t>(row_begin),
                col_idx.end());
    }
    row_ptr[r + 1] = col_idx.size();
  }

  const size_t nnz = col_idx.size();
  arrays->values.assign(references.size() * nnz, 0.0);
  std::vector<size_t> partial;  // DMs with fewer entries than the union
  for (size_t k = 0; k < references.size(); ++k) {
    common::ConstSpan<double> values = references[k].disaggregation.values();
    if (values.size() == nnz) {
      // A subset of the union as large as the union is the union.
      std::copy(values.begin(), values.end(),
                arrays->values.begin() + static_cast<ptrdiff_t>(k * nnz));
    } else {
      partial.push_back(k);
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t u = row_ptr[r]; u < row_ptr[r + 1]; ++u) by_col[col_idx[u]] = u;
    for (size_t k : partial) {
      const CsrMatrix& dm = references[k].disaggregation;
      common::ConstSpan<size_t> rp = dm.row_ptr();
      common::ConstSpan<size_t> ci = dm.col_idx();
      common::ConstSpan<double> values = dm.values();
      double* out = arrays->values.data() + k * nnz;
      for (size_t j = rp[r]; j < rp[r + 1]; ++j) out[by_col[ci[j]]] = values[j];
    }
  }

  // One validation of the shared structure; every other DM reuses it.
  CsrView view;
  view.rows = rows;
  view.cols = cols;
  view.row_ptr = arrays->row_ptr;
  view.col_idx = arrays->col_idx;
  view.values = common::ConstSpan<double>(arrays->values.data(), nnz);
  GEOALIGN_ASSIGN_OR_RETURN(CsrMatrix structure,
                            CsrMatrix::FromBorrowed(view, arrays));
  for (size_t k = 0; k < references.size(); ++k) {
    references[k].disaggregation = CsrMatrix::BorrowStructure(
        structure,
        common::ConstSpan<double>(arrays->values.data() + k * nnz, nnz),
        arrays);
  }
  return Status::OK();
}

}  // namespace

Result<PreparedReferenceSet> PreparedReferenceSet::Prepare(
    std::vector<ReferenceDataView> references) {
  if (references.empty()) {
    return Status::InvalidArgument(
        "PreparedReferenceSet: no reference attributes");
  }
  size_t rows = references[0].disaggregation.rows();
  size_t cols = references[0].disaggregation.cols();
  for (const ReferenceDataView& ref : references) {
    if (ref.disaggregation.rows() != rows ||
        ref.disaggregation.cols() != cols) {
      return Status::InvalidArgument(
          "PreparedReferenceSet: reference '" + ref.name +
          "' disaggregation shape mismatch");
    }
    if (ref.source_aggregates.size() != rows) {
      return Status::InvalidArgument(
          "PreparedReferenceSet: reference '" + ref.name +
          "' aggregate length does not match disaggregation rows");
    }
  }

  GEOALIGN_TRACE_SPAN("compile.prepare_references");
  PreparedReferenceSet set;
  set.num_source_ = rows;
  set.num_target_ = cols;
  set.refs_.resize(references.size());
  for (size_t k = 0; k < references.size(); ++k) {
    // Same normalization (and therefore same failure messages) as the
    // legacy per-call BuildNormalizedSystem.
    PreparedReference& prepared = set.refs_[k];
    GEOALIGN_ASSIGN_OR_RETURN(
        prepared.normalized_aggregates,
        linalg::NormalizeByMax(references[k].source_aggregates));
    // NormalizeByMax succeeded, so entries are finite and non-negative
    // with at least one positive: the max is a valid positive
    // normalizer whose reciprocal is finite.
    prepared.normalizer = linalg::Max(references[k].source_aggregates);
  }
  {
    // Over the caller's arrays, before any union scatter, so the value
    // does not depend on whether the set needed one.
    GEOALIGN_TRACE_SPAN("compile.fingerprint");
    Fnv1a hash;
    hash.MixSize(references.size());
    hash.MixSize(rows);
    hash.MixSize(cols);
    for (const ReferenceDataView& ref : references) {
      hash.MixString(ref.name);
      hash.MixDoubles(ref.source_aggregates);
      hash.MixSizes(ref.disaggregation.row_ptr());
      hash.MixSizes(ref.disaggregation.col_idx());
      hash.MixDoubles(ref.disaggregation.values());
    }
    set.fingerprint_ = hash.value();
  }

  if (!SharesOneStructure(references)) {
    GEOALIGN_RETURN_IF_ERROR(ScatterOntoUnion(references));
  }
  set.dms_.reserve(references.size());
  for (size_t k = 0; k < references.size(); ++k) {
    PreparedReference& prepared = set.refs_[k];
    prepared.name = std::move(references[k].name);
    prepared.source_aggregates = references[k].source_aggregates;
    prepared.aggregates_keepalive = std::move(references[k].keepalive);
    prepared.disaggregation = std::move(references[k].disaggregation);
    set.dms_.push_back(&prepared.disaggregation);
  }
  return set;
}

Result<PreparedReferenceSet> PreparedReferenceSet::Prepare(
    std::vector<ReferenceData> references) {
  std::vector<ReferenceDataView> views;
  views.reserve(references.size());
  for (ReferenceData& ref : references) {
    ReferenceDataView view;
    view.name = std::move(ref.name);
    // One move into a ref-counted holder; the bytes are not copied.
    auto held = std::make_shared<const linalg::Vector>(
        std::move(ref.source_aggregates));
    view.source_aggregates = common::ColumnView(held->data(), held->size());
    view.keepalive = std::move(held);
    view.disaggregation = std::move(ref.disaggregation);
    views.push_back(std::move(view));
  }
  return Prepare(std::move(views));
}

}  // namespace geoalign::sparse
