// Row-versus-per-face checks for flux rows with the lane contract of
// rusanov_flux_row: face i's left/right state variable v is read from
// pL[v*sL + i] / pR[v*sR + i], flux component v is written to
// F[v*lane + i]. Plus the MHD cell fuzzer the HLLD and Rusanov row tests
// share.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "physics/mhd.hpp"
#include "support/rng.hpp"

namespace ab::testing {

/// Lays out the nf = cells.size() - 1 faces between consecutive `cells`
/// in lane-scratch form (separate left/right lanes at stride `lane`) or,
/// with `block_stride`, in block form (one cell row at an odd field
/// stride, pR = pL + 1, as first-order sweeps pass it). Runs
/// row(pL, stride, pR, stride, F, lane, nf) and compares each face with
/// memcmp against face(cells[i], cells[i + 1], f). Both flux buffers start
/// from the same sentinel, so a write past nf also shows as a mismatch.
template <class State, class Row, class Face>
void expect_row_matches_faces(const std::vector<State>& cells,
                              bool block_stride, const Row& row,
                              const Face& face) {
  constexpr int NV = static_cast<int>(std::tuple_size_v<State>);
  const int nf = static_cast<int>(cells.size()) - 1;
  const std::int64_t lane = (nf + 2 + 7) & ~7;
  const std::int64_t fs = lane + 3;  // odd: unaligned pairs
  std::vector<double> in(2 * NV * fs, 0.0);
  const std::int64_t stride = block_stride ? fs : lane;
  double* pL = in.data() + (block_stride ? 1 : 0);
  double* pR = block_stride ? pL + 1 : pL + NV * lane;
  for (int i = 0; i < nf; ++i)
    for (int v = 0; v < NV; ++v) {
      pL[v * stride + i] = cells[i][v];
      pR[v * stride + i] = cells[i + 1][v];
    }
  std::vector<double> row_flux(NV * lane, -1234.5);
  std::vector<double> face_flux(NV * lane, -1234.5);
  row(pL, stride, pR, stride, row_flux.data(), lane, nf);
  for (int i = 0; i < nf; ++i) {
    State f;
    face(cells[i], cells[i + 1], f);
    for (int v = 0; v < NV; ++v) face_flux[v * lane + i] = f[v];
  }
  for (int i = 0; i < nf; ++i)
    for (int v = 0; v < NV; ++v)
      ASSERT_EQ(0, std::memcmp(&row_flux[v * lane + i],
                               &face_flux[v * lane + i], sizeof(double)))
          << "nf=" << nf << " block_stride=" << block_stride
          << " face=" << i << " var=" << v << ": " << row_flux[v * lane + i]
          << " vs " << face_flux[v * lane + i];
  ASSERT_EQ(0, std::memcmp(row_flux.data(), face_flux.data(),
                           row_flux.size() * sizeof(double)))
      << "the row wrote past nf=" << nf;
}

/// A row of `n` random MHD cells in one of several regimes: drifting
/// through the face (supersonic), no normal field (bn = 0) or none at all,
/// or a field along `dir` with at most a tiny tangential part (degenerate
/// HLLD stars, and p = bn^2 / gamma for fast-speed discriminants that
/// round below zero). Some cells repeat their neighbour, some have p < 0.
template <int D>
std::vector<typename IdealMhd<D>::State> fuzz_mhd_cells(
    const IdealMhd<D>& phys, int dir, int n, SplitMix64& rng) {
  using M = IdealMhd<D>;
  const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
  const double drift = rng.below(3) == 0 ? sign * rng.uniform(1.0, 8.0) : 0.0;
  const bool zero_bn = rng.below(6) == 0;
  const bool hydro = zero_bn && rng.below(2) == 0;  // B = 0: the HLLC limit
  const bool aligned = !zero_bn && rng.below(5) == 0;
  const double bn_aligned = sign * rng.uniform(0.5, 2.5);
  std::vector<typename M::State> cells;
  for (int c = 0; c < n; ++c) {
    if (c > 0 && rng.below(aligned ? 2 : 6) == 0) {
      cells.push_back(cells.back());
      continue;
    }
    const double rho = rng.uniform(0.2, 2.0);
    double p = rng.uniform(0.05, 2.0);
    double v[3], b[3];
    for (int k = 0; k < 3; ++k) {
      v[k] = rng.uniform(-2.0, 2.0);
      b[k] = rng.uniform(-1.5, 1.5);
    }
    v[dir] += drift;
    if (zero_bn) b[dir] = 0.0;
    if (hydro) b[0] = b[1] = b[2] = 0.0;
    if (aligned) {
      // Bt = 0, or small enough that the star denominator still rounds
      // below the degeneracy threshold while the switched-off field shows.
      const double bt = rng.below(2) == 0 ? 0.0 : 1e-7;
      for (int k = 0; k < 3; ++k)
        b[k] = k == dir ? bn_aligned : bt * rng.uniform(-1.0, 1.0);
      if (rng.below(2) == 0) p = b[dir] * b[dir] / phys.gamma;
    }
    if (rng.below(16) == 0) p = -rng.uniform(0.01, 0.3);
    typename M::State u{};
    u[M::irho()] = rho;
    double ke = 0.0, b2 = 0.0;
    for (int k = 0; k < 3; ++k) {
      u[M::imom(k)] = rho * v[k];
      u[M::imag(k)] = b[k];
      ke += v[k] * v[k];
      b2 += b[k] * b[k];
    }
    u[M::ieng()] = p / (phys.gamma - 1.0) + 0.5 * rho * ke + 0.5 * b2;
    cells.push_back(u);
  }
  return cells;
}

}  // namespace ab::testing
