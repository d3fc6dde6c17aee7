#include "oracles/overlay_reference.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "geom/boolean_ops.h"

namespace geoalign::partition {

namespace {

bool CellLess(const IntersectionCell& a, const IntersectionCell& b) {
  return a.source != b.source ? a.source < b.source : a.target < b.target;
}

}  // namespace

Result<OverlayResult> OverlayPolygonsReference(const PolygonPartition& source,
                                               const PolygonPartition& target,
                                               double min_area,
                                               size_t threads) {
  OverlayResult out;
  out.num_source = static_cast<uint32_t>(source.NumUnits());
  out.num_target = static_cast<uint32_t>(target.NumUnits());

  // Each chunk of target units gathers its candidate pairs through the
  // (read-only) source R-tree and clips them into a private cell list;
  // chunk-order concatenation reproduces the sequential j-loop order,
  // and the final (source, target) sort has unique keys, so any thread
  // count produces the identical overlay.
  constexpr size_t kTargetGrain = 16;
  std::unique_ptr<common::ThreadPool> pool =
      common::MakePoolOrNull(common::ResolveThreadCount(threads));
  std::vector<common::ChunkRange> chunks =
      common::DeterministicChunks(target.NumUnits(), kTargetGrain);
  std::vector<std::vector<IntersectionCell>> chunk_cells(chunks.size());
  common::ParallelForChunks(pool.get(), chunks.size(), [&](size_t ci) {
    std::vector<IntersectionCell>& cells = chunk_cells[ci];
    for (size_t j = chunks[ci].begin; j < chunks[ci].end; ++j) {
      const geom::Polygon& tp = target.unit(j);
      for (uint32_t i : source.CandidatesInBox(tp.Bounds())) {
        double inter = geom::IntersectionArea(source.unit(i), tp);
        if (inter > min_area) {
          cells.push_back({i, static_cast<uint32_t>(j), inter});
        }
      }
    }
  });
  for (std::vector<IntersectionCell>& cells : chunk_cells) {
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
  }
  std::sort(out.cells.begin(), out.cells.end(), CellLess);
  return out;
}

}  // namespace geoalign::partition
