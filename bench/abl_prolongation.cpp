// Ablation I: prolongation operator at coarse/fine ghost fills.
//
// Three ways to interpolate coarse data into fine ghosts:
//   Constant       — first-order injection (one coarse read per fine cell);
//   LimitedLinear  — minmod slopes: second order on smooth data, no new
//                    extrema at discontinuities (the hydro default);
//   Linear         — unlimited central slopes: second order and linear in
//                    the data (required by Krylov solvers), but can
//                    overshoot at jumps.
// Measured: smooth-advection L1 error across a refined patch, and the
// overshoot a contact discontinuity produces as it crosses the interface.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "amr/solver.hpp"
#include "physics/advection.hpp"
#include "util/table.hpp"

using namespace ab;

namespace {

struct Result {
  double smooth_l1 = 0.0;
  double overshoot = 0.0;  // max(u) - 2.0 after a [1,2] step crosses
};

Result run(Prolongation kind) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  Result r;
  auto make = [&](auto icfun) {
    typename AmrSolver<2, LinearAdvection<2>>::Config cfg;
    cfg.forest.root_blocks = {4, 4};
    cfg.forest.periodic = {true, true};
    cfg.forest.max_level = 1;
    cfg.cells_per_block = {8, 8};
    cfg.prolongation = kind;
    auto solver =
        std::make_unique<AmrSolver<2, LinearAdvection<2>>>(cfg, phys);
    solver->init(icfun);
    // Static refined band the profile must cross.
    solver->adapt(RegionCriterion<2>{
        [](const RVec<2>& lo, const RVec<2>& hi) {
          return lo[0] < 0.75 && hi[0] > 0.45;
        },
        1});
    solver->init(icfun);
    return solver;
  };

  // Smooth test.
  auto smooth = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + std::exp(-50.0 * (x[0] - 0.25) * (x[0] - 0.25));
  };
  {
    auto solver = make(smooth);
    const double t_end = 0.35;
    solver->advance_to(t_end);
    double err = 0.0;
    std::int64_t n = 0;
    for (int id : solver->forest().leaves()) {
      ConstBlockView<2> v = solver->store().view(id);
      for_each_cell<2>(solver->store().layout().interior_box(),
                       [&](IVec<2> p) {
                         RVec<2> x = solver->cell_center(id, p);
                         double xx = x[0] - t_end;
                         xx -= std::floor(xx);
                         err += std::fabs(v.at(0, p) -
                                          (1.0 + std::exp(-50.0 * (xx - 0.25) *
                                                          (xx - 0.25))));
                         ++n;
                       });
    }
    r.smooth_l1 = err / n;
  }

  // Step test: data in [1, 2]; any value above 2 is an overshoot.
  auto step = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = (x[0] > 0.15 && x[0] < 0.4) ? 2.0 : 1.0;
  };
  {
    auto solver = make(step);
    solver->advance_to(0.35);
    double umax = -1e300;
    for (int id : solver->forest().leaves()) {
      ConstBlockView<2> v = solver->store().view(id);
      for_each_cell<2>(solver->store().layout().interior_box(),
                       [&](IVec<2> p) {
                         umax = std::max(umax, v.at(0, p));
                       });
    }
    r.overshoot = std::max(0.0, umax - 2.0);
  }
  return r;
}

}  // namespace

int main() {
  std::printf(
      "Ablation I: prolongation operator (coarse->fine ghost interpolation)\n"
      "profiles advected across a static refined band\n\n");
  Table t({"prolongation", "smooth L1 error", "step overshoot"});
  const std::pair<const char*, Prolongation> kinds[] = {
      {"constant (1st order)", Prolongation::Constant},
      {"limited linear (minmod)", Prolongation::LimitedLinear},
      {"unlimited linear", Prolongation::Linear},
  };
  for (auto [name, kind] : kinds) {
    auto r = run(kind);
    t.add_row({std::string(name), r.smooth_l1, r.overshoot});
  }
  t.print(std::cout);
  std::printf(
      "\nlimited-linear matches unlimited accuracy on smooth data while "
      "keeping jump-crossing overshoot at the unlimited level or below; "
      "constant injection is markedly less accurate. Hyperbolic solves "
      "default to limited-linear; the elliptic solver needs the unlimited "
      "variant (a Krylov operator must be linear in the data).\n");
  return 0;
}
