#ifndef GEOALIGN_LINALG_SIMPLEX_LS_H_
#define GEOALIGN_LINALG_SIMPLEX_LS_H_

#include "linalg/matrix.h"

namespace geoalign::linalg {

/// Options for the simplex-constrained least squares solver.
struct SimplexLsOptions {
  /// Tolerance for primal feasibility and the dual (KKT) test.
  double tolerance = 1e-10;
  /// Safety cap on active-set changes; 0 means 10 * #columns + 20.
  size_t max_iterations = 0;
  /// Relative ridge added to the Gram matrix when the KKT system is
  /// singular (near-duplicate reference attributes, cf. paper §4.4.2
  /// where two references are ~96% correlated).
  double ridge_on_singular = 1e-10;
};

/// Solution of a simplex-constrained least squares problem.
struct SimplexLsSolution {
  Vector beta;           ///< argmin on the probability simplex
  double residual_norm;  ///< ||A beta - b||_2
  size_t iterations;     ///< active-set iterations used
};

/// Solves the paper's weight-learning problem (Eq. 15):
///
///   min_beta  ½ ||A beta - b||²
///   s.t.      sum_k beta_k = 1,   beta_k >= 0.
///
/// Active-set method: starting from the feasible uniform point, each
/// iteration solves the equality-constrained subproblem on the passive
/// variables through its KKT system, steps back to the feasible region
/// when a variable would go negative, and uses the Lagrange-multiplier
/// test to release active variables. Terminates at a KKT point, which
/// is the global optimum of this convex QP.
Result<SimplexLsSolution> SolveSimplexLeastSquares(
    const Matrix& a, const Vector& b, const SimplexLsOptions& options = {});

/// Same problem expressed through the normal equations: `gram` = A^T A,
/// `atb` = A^T b, and `btb` = b^T b (only used to report the residual
/// norm). Lets callers that solve many right-hand sides against one
/// design matrix (core::CrosswalkPlan) reuse the Gram matrix.
Result<SimplexLsSolution> SolveSimplexLsFromNormalEquations(
    const Matrix& gram, const Vector& atb, double btb,
    const SimplexLsOptions& options = {});

}  // namespace geoalign::linalg

#endif  // GEOALIGN_LINALG_SIMPLEX_LS_H_
