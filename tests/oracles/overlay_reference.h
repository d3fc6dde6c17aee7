#ifndef GEOALIGN_TESTS_ORACLES_OVERLAY_REFERENCE_H_
#define GEOALIGN_TESTS_ORACLES_OVERLAY_REFERENCE_H_

#include <cstddef>

#include "partition/overlay.h"
#include "partition/polygon_partition.h"

namespace geoalign::partition {

/// The pre-engine overlay, kept verbatim as the differential oracle:
/// per-target R-tree queries + per-pair IntersectionArea, no caching,
/// no workspace. tests/overlay_engine_test.cc asserts the engine (fast
/// paths off) is bit-identical to this for every universe × thread
/// count; bench/overlay_scale measures the speedup against it.
/// Test-only: product code calls OverlayPolygons.
Result<OverlayResult> OverlayPolygonsReference(const PolygonPartition& source,
                                               const PolygonPartition& target,
                                               double min_area = 0.0,
                                               size_t threads = 1);

}  // namespace geoalign::partition

#endif  // GEOALIGN_TESTS_ORACLES_OVERLAY_REFERENCE_H_
