#ifndef GEOALIGN_TESTS_ORACLES_CROSSWALK_UNCOMPILED_H_
#define GEOALIGN_TESTS_ORACLES_CROSSWALK_UNCOMPILED_H_

#include "core/crosswalk_input.h"
#include "core/geoalign_options.h"
#include "core/interpolator.h"

namespace geoalign::core {

/// The legacy recompile-per-call implementation of Algorithm 1,
/// preserved verbatim from before the compile/execute split. This is
/// the reference oracle that `plan_equivalence_test` compares the
/// compiled path against, and the baseline arm of
/// bench/realign_throughput — it must keep redoing all objective-
/// independent work per call, so do not "optimize" it. Test-only:
/// product code goes through GeoAlign::Crosswalk or a CrosswalkPlan.
/// `options.threads` sizes the pool of its row-chunked kernels.
Result<CrosswalkResult> CrosswalkUncompiled(const CrosswalkInput& input,
                                            const GeoAlignOptions& options);

}  // namespace geoalign::core

#endif  // GEOALIGN_TESTS_ORACLES_CROSSWALK_UNCOMPILED_H_
