#include "litho/tcc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ganopc::litho {

namespace {

using cdouble = std::complex<double>;

// Pupil function (amplitude + defocus phase) at frequency (fx, fy).
cdouble pupil(const OpticsConfig& cfg, double fx, double fy) {
  const double f2 = fx * fx + fy * fy;
  const double c = cfg.cutoff();
  if (f2 >= c * c) return {0.0, 0.0};
  if (cfg.defocus_nm == 0.0) return {1.0, 0.0};
  const double phase = -M_PI * cfg.wavelength_nm * cfg.defocus_nm * f2;
  return {std::cos(phase), std::sin(phase)};
}

// Complex product without the NaN-recovering libcall std::complex uses
// unless -ffast-math is on (it dominates the solve otherwise).
inline cdouble mul(cdouble a, cdouble b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// Rows p and q of the row-major s-column matrix m become
// (c x + alpha y, sn x + beta y), where x and y are the old rows.
void rotate_rows(std::vector<cdouble>& m, std::size_t s, std::size_t p, std::size_t q,
                 double c, double sn, cdouble alpha, cdouble beta) {
  cdouble* x = &m[p * s];
  cdouble* y = &m[q * s];
  for (std::size_t k = 0; k < s; ++k) {
    const cdouble xk = x[k], yk = y[k];
    x[k] = c * xk + mul(alpha, yk);
    y[k] = sn * xk + mul(beta, yk);
  }
}

// Cyclic Jacobi eigensolve of the Hermitian s x s matrix `a` (row-major,
// destroyed). Returns the eigenvalues; row k of `vt` is the unit eigenvector
// of eigenvalue k. The rotation order is fixed and everything runs serially
// in double, so the result is bitwise reproducible.
std::vector<double> hermitian_jacobi(std::vector<cdouble>& a, std::size_t s,
                                     std::vector<cdouble>& vt) {
  vt.assign(s * s, cdouble{0.0, 0.0});
  for (std::size_t i = 0; i < s; ++i) vt[i * s + i] = 1.0;
  double norm2 = 0.0;
  for (const cdouble& x : a) norm2 += std::norm(x);
  auto off_diagonal2 = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < s; ++i)
      for (std::size_t j = 0; j < s; ++j)
        if (i != j) sum += std::norm(a[i * s + j]);
    return sum;
  };
  for (int sweep = 0; sweep < 100 && off_diagonal2() > 1e-28 * norm2; ++sweep) {
    for (std::size_t p = 0; p + 1 < s; ++p) {
      for (std::size_t q = p + 1; q < s; ++q) {
        const cdouble g = a[p * s + q];
        const double mag = std::abs(g);
        if (mag == 0.0) continue;
        // U = diag(1, e) R: the phase e = conj(g)/|g| makes the (p, q) entry
        // real, then the real rotation R(c, sn) annihilates it.
        const double app = a[p * s + p].real(), aqq = a[q * s + q].real();
        const double theta = (aqq - app) / (2.0 * mag);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0), sn = t * c;
        const cdouble e = std::conj(g) / mag;
        // a <- U^H a U: rotate rows p, q, mirror row q into column q (the
        // result is Hermitian) and set the annihilated 2x2 block. Column p
        // only feeds that block while p is the pivot, so it is mirrored once
        // the pivot moves on.
        rotate_rows(a, s, p, q, c, sn, -sn * std::conj(e), c * std::conj(e));
        for (std::size_t k = 0; k < s; ++k) a[k * s + q] = std::conj(a[q * s + k]);
        a[p * s + p] = app - t * mag;
        a[q * s + q] = aqq + t * mag;
        a[p * s + q] = a[q * s + p] = 0.0;
        rotate_rows(vt, s, p, q, c, sn, -sn * e, c * e);  // v <- v U
      }
      for (std::size_t k = 0; k < s; ++k) a[k * s + p] = std::conj(a[p * s + k]);
    }
  }
  std::vector<double> eigenvalues(s);
  for (std::size_t i = 0; i < s; ++i) eigenvalues[i] = a[i * s + i].real();
  return eigenvalues;
}

}  // namespace

TccKernelSet compute_tcc_kernels(const OpticsConfig& config, std::int32_t grid_size,
                                 std::int32_t pixel_nm,
                                 const std::vector<SourcePoint>& source,
                                 int num_kernels) {
  GANOPC_CHECK_MSG(config.valid(), "invalid optics configuration");
  GANOPC_CHECK_MSG(fft::is_pow2(static_cast<std::size_t>(grid_size)),
                   "grid size must be a power of two");
  GANOPC_CHECK_MSG(num_kernels > 0 && static_cast<std::size_t>(num_kernels) <= source.size(),
                   "tcc: kernel count must be in [1, #source points] (the "
                   "operator's rank is at most the number of source points)");
  const double df = 1.0 / (static_cast<double>(grid_size) * pixel_nm);
  const double support = (1.0 + config.sigma_outer) * config.cutoff();
  GANOPC_CHECK_MSG(support < 0.5 / pixel_nm, "pixel size too coarse for the pupil");

  // Enumerate grid frequencies inside the extended pupil support.
  struct FreqPoint {
    std::int32_t row, col;  // unshifted grid indices
    double fx, fy;          // cycles/nm
  };
  std::vector<FreqPoint> points;
  for (std::int32_t r = 0; r < grid_size; ++r) {
    const std::int32_t rr = r <= grid_size / 2 ? r : r - grid_size;
    const double fy = rr * df;
    for (std::int32_t c = 0; c < grid_size; ++c) {
      const std::int32_t cc = c <= grid_size / 2 ? c : c - grid_size;
      const double fx = cc * df;
      if (fx * fx + fy * fy <= support * support) points.push_back({r, c, fx, fy});
    }
  }
  const std::size_t n = points.size();
  const std::size_t s_count = source.size();

  double total = 0.0;
  for (const auto& p : source) {
    GANOPC_CHECK_MSG(std::isfinite(p.fx) && std::isfinite(p.fy) &&
                         std::isfinite(p.weight) && p.weight > 0.0,
                     "tcc: source points need finite positive weights");
    total += p.weight;
  }
  // Column s of B: sqrt(w_s) times the pupil shifted by source point s.
  std::vector<std::vector<cdouble>> b(s_count, std::vector<cdouble>(n));
  for (std::size_t s = 0; s < s_count; ++s) {
    const double amp = std::sqrt(source[s].weight / total);
    for (std::size_t i = 0; i < n; ++i)
      b[s][i] = amp * pupil(config, source[s].fx + points[i].fx,
                            source[s].fy + points[i].fy);
  }
  // G = B^H B, filled from its upper triangle.
  std::vector<cdouble> gram(s_count * s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    for (std::size_t t = s; t < s_count; ++t) {
      cdouble dot{0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i) dot += mul(std::conj(b[s][i]), b[t][i]);
      gram[s * s_count + t] = dot;
      gram[t * s_count + s] = std::conj(dot);
    }
  }
  double trace = 0.0;
  for (std::size_t s = 0; s < s_count; ++s) trace += gram[s * s_count + s].real();

  std::vector<cdouble> u;  // row k: the eigenvector u_k of G
  const std::vector<double> eigenvalues = hermitian_jacobi(gram, s_count, u);
  std::vector<std::size_t> order(s_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return eigenvalues[x] > eigenvalues[y];
  });

  TccKernelSet result;
  const std::size_t grid_px = static_cast<std::size_t>(grid_size) * grid_size;
  double captured = 0.0;
  for (int rank = 0; rank < num_kernels; ++rank) {
    const std::size_t k = order[static_cast<std::size_t>(rank)];
    GANOPC_CHECK_MSG(std::isfinite(eigenvalues[k]),
                     "tcc: eigensolve produced a non-finite eigenvalue "
                     "(poisoned optics?)");
    const double lambda = std::max(eigenvalues[k], 0.0);
    captured += lambda;
    // phi_k = B u_k / sqrt(lambda_k); a null direction keeps a zero kernel.
    std::vector<std::complex<float>> kernel(grid_px, {0.0f, 0.0f});
    if (lambda > 0.0) {
      const double inv = 1.0 / std::sqrt(lambda);
      for (std::size_t i = 0; i < n; ++i) {
        cdouble acc{0.0, 0.0};
        for (std::size_t s = 0; s < s_count; ++s) acc += mul(b[s][i], u[k * s_count + s]);
        acc *= inv;
        kernel[static_cast<std::size_t>(points[i].row) * grid_size + points[i].col] = {
            static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
      }
    }
    result.kernels_hat.push_back(std::move(kernel));
    result.weights.push_back(static_cast<float>(lambda));
  }
  result.trace = trace;
  result.captured_energy = trace > 0.0 ? captured / trace : 0.0;
  return result;
}

}  // namespace ganopc::litho
