#ifndef GEOALIGN_SPARSE_KERNEL_GRAINS_H_
#define GEOALIGN_SPARSE_KERNEL_GRAINS_H_

#include <cstddef>

namespace geoalign::sparse {

// Row-chunk grains for the parallel kernels. Values are part of the
// deterministic-reduction contract only in that they must not depend
// on the thread count; they are tuned for rows costing ~1-10 µs.
//
// kColSumGrain is shared between the plan's Eq. 14/17 kernel
// (fused_execute.h) and the materializing oracle's column sums
// (ColSumsDeterministic, tests/oracles/sparse_oracle.h): the kernel's
// scatter replays the column-sum chunking exactly, so both paths add
// the per-chunk partials in the same order and stay bit-identical.
inline constexpr size_t kRowScaleGrain = 512;  // DivideRowsOrZero
inline constexpr size_t kColSumGrain = 256;    // FusedAggregatesPanel +
                                               // ColSumsDeterministic

}  // namespace geoalign::sparse

#endif  // GEOALIGN_SPARSE_KERNEL_GRAINS_H_
