// Transmission cross coefficient (TCC) kernel factory — the Hopkins/SVD
// route of Eq. (1) ([19] Hopkins, [20] Cobb).
//
// The partially coherent image is I(x) = sum over (f1, f2) of
//   TCC(f1, f2) M_hat(f1) M_hat*(f2) e^{2 pi i (f1 - f2) x},
// with TCC(f1, f2) = integral J(s) P(s + f1) P*(s + f2) ds. Diagonalizing
// the Hermitian PSD TCC operator gives the optimal sum-of-coherent-systems:
//   I = sum_k lambda_k |M (x) phi_k|^2,
// which converges in far fewer kernels than direct Abbe source sampling —
// the reason production simulators ship SVD kernels (as lithosim_v4 does).
//
// For a source discretized at S points the operator factors exactly as
// T = B B^H, where column s of B (n x S, n = samples of the pupil-limited
// frequency support) is sqrt(w_s) times the pupil shifted by source point s.
// Its nonzero eigenpairs therefore come from the S x S Gram matrix
// G = B^H B: if G u = lambda u then phi = B u / sqrt(lambda) is a unit
// eigenvector of T with the same eigenvalue, and trace(T) = trace(G). The
// n x n operator is never formed; G is diagonalized by a deterministic
// Hermitian Jacobi sweep, so the kernels are exact up to double rounding.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "litho/optics.hpp"

namespace ganopc::litho {

struct TccKernelSet {
  /// Frequency-domain kernels on the full grid (unshifted FFT layout).
  std::vector<std::vector<std::complex<float>>> kernels_hat;
  /// Eigenvalues lambda_k (nonincreasing, nonnegative); the SOCS weights.
  std::vector<float> weights;
  /// Fraction of the TCC trace captured by the retained kernels in [0, 1].
  double captured_energy = 0.0;
  /// Trace of the whole operator (sum of all S eigenvalues), so a caller
  /// can compute the captured energy of any shorter prefix exactly.
  double trace = 0.0;
};

/// Compute the top `num_kernels` TCC eigen-kernels of the operator generated
/// by `source` (weights need not sum to 1; they are normalized). The operator
/// has rank <= source.size(), so num_kernels must lie in [1, source.size()].
/// Pass `sample_annular_source(config, config.num_kernels)` to get kernels
/// whose full-rank expansion reproduces the Abbe image (DESIGN.md §15), or a
/// denser sampling for a converged reference. grid_size must be a power of
/// two and the pixel fine enough to hold the pupil support (same constraint
/// as SocsKernels).
TccKernelSet compute_tcc_kernels(const OpticsConfig& config, std::int32_t grid_size,
                                 std::int32_t pixel_nm,
                                 const std::vector<SourcePoint>& source,
                                 int num_kernels);

}  // namespace ganopc::litho
