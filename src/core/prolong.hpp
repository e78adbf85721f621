// Prolongation (coarse -> fine) choices and the slope limiter they share.
//
// Prolongation and restriction (fine -> coarse) fill ghost cells across
// resolution jumps and transfer block data on refinement/coarsening; their
// arithmetic is GhostExchanger's row executor (ghost.cpp). Restriction is
// the conservative 2^D-cell volume average. Prolongation is piecewise
// constant (first order) or linear, limited or not (second order); all
// conserve the coarse cell total because fine-cell offsets are the
// symmetric +-1/4 of the coarse cell size. A fine cell's slope along a
// dimension drops to zero when its stencil leaves the op's `valid` box.
#pragma once

namespace ab {

enum class Prolongation {
  Constant,       ///< injection of the coarse value (first-order ghosts)
  LimitedLinear,  ///< minmod-limited linear reconstruction (second order)
  Linear          ///< unlimited central slopes: second order AND linear in
                  ///< the data — required by linear solvers (elliptic)
};

/// minmod slope limiter of the two one-sided differences.
inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  double aa = a < 0 ? -a : a;
  double ab = b < 0 ? -b : b;
  double m = aa < ab ? aa : ab;
  return a > 0 ? m : -m;
}

}  // namespace ab
