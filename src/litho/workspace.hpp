// LithoWorkspace: reusable scratch buffers for the SOCS forward and adjoint
// passes.
//
// Both passes run on the kernels' M x M band grid (SocsKernels::band_grid,
// DESIGN.md §7). One aerial image costs 1 full-grid mask FFT + N_h band
// IFFTs (+ one band-to-full upsample when M < N); one gradient adds, per dose
// corner, a low-pass of dE/dI and N_h band FFTs, then a single full-grid
// inverse for the whole frequency-domain adjoint sum. Allocating the
// spectra, the N_h coherent-field buffers and the accumulators afresh on
// every call (as the seed engine did) dominates small-grid runtimes and
// fragments the heap under ILT's hundreds of iterations. A workspace owns
// those buffers and only ever grows, so repeated `aerial` / `gradient_into`
// calls allocate no scratch.
//
// A workspace is NOT thread-safe: it belongs to one simulation call at a
// time. The convenience wrappers in LithoSim use one workspace per thread;
// batch APIs give each worker its own.
#pragma once

#include <cstddef>
#include <vector>

#include "fft/fft.hpp"
#include "geometry/grid.hpp"

namespace ganopc::litho {

class LithoWorkspace {
 public:
  LithoWorkspace() = default;

  /// Total bytes currently held by the scratch buffers (diagnostics/tests).
  std::size_t bytes() const {
    std::size_t total = (spec.capacity() + mask_hat.capacity() + band_spec.capacity()) *
                            sizeof(fft::cfloat) +
                        (x.capacity() + band_real.capacity()) * sizeof(float) +
                        acc.capacity() * sizeof(double);
    for (const auto& f : fields) total += f.capacity() * sizeof(fft::cfloat);
    for (const auto& f : adjoint) total += f.capacity() * sizeof(fft::cfloat);
    return total;
  }

  /// Grow (never shrink) the forward-pass buffers to `kernels` fields of
  /// `band_px` (M^2) values; `full_px` (N^2) sizes the full-grid scratch.
  /// Returns true when any buffer actually grew — the caller bumps the
  /// `litho.workspace.grows` counter, which the engine contract test asserts
  /// stays flat across steady-state submits.
  bool ensure_forward(int kernels, std::size_t band_px, std::size_t full_px) {
    const std::size_t before = bytes();
    grow(mask_hat, band_px);
    if (fields.size() < static_cast<std::size_t>(kernels))
      fields.resize(static_cast<std::size_t>(kernels));
    for (auto& f : fields) grow(f, band_px);
    if (weights.size() < static_cast<std::size_t>(kernels))
      weights.resize(static_cast<std::size_t>(kernels));
    grow(acc, band_px);
    if (band_px < full_px) {
      grow(spec, full_px);
      grow(band_spec, band_px);
      grow(band_real, band_px);
    }
    return bytes() != before;
  }

  /// Grow the adjoint-pass buffers (gradient only; call after
  /// ensure_forward). Returns true when any buffer actually grew.
  bool ensure_adjoint(int kernels, std::size_t band_px, std::size_t full_px) {
    const std::size_t before = bytes();
    if (adjoint.size() < static_cast<std::size_t>(kernels))
      adjoint.resize(static_cast<std::size_t>(kernels));
    for (auto& f : adjoint) grow(f, band_px);
    grow(x, full_px);
    return bytes() != before;
  }

  /// Full-grid (N^2) spectrum scratch (M < N only): the mask and dE/dI
  /// transforms, the band-to-full upsample, and the padded adjoint sum.
  std::vector<fft::cfloat> spec;
  /// Band-grid mask spectrum (unshifted layout of the signed window). Once
  /// the fields exist the gradient reuses it for the frequency-domain
  /// adjoint sum over kernels and dose corners.
  std::vector<fft::cfloat> mask_hat;
  /// Per-kernel coherent fields A_k = IFFT_M(H_k_hat .* mask_hat).
  std::vector<std::vector<fft::cfloat>> fields;
  /// Per-kernel adjoint spectra FFT_M(X .* conj(A_k)) for Eq. (14). Kept
  /// separate from `fields` so multi-dose gradients reuse the forward fields.
  std::vector<std::vector<fft::cfloat>> adjoint;
  /// Band-grid spectrum scratch (M < N only).
  std::vector<fft::cfloat> band_spec;
  /// Band-grid real scratch (M < N only): the intensity before upsampling,
  /// then the low-passed dE/dI.
  std::vector<float> band_real;
  /// Per-kernel SOCS weights, gathered once per call for tight inner loops.
  std::vector<float> weights;
  /// dE/dI (real), one entry per full-grid pixel.
  std::vector<float> x;
  /// Double-precision per-pixel intensity accumulator (band grid).
  std::vector<double> acc;
  /// Aerial image scratch for gradient calls (the caller never sees it).
  geom::Grid aerial_scratch;

 private:
  template <typename T>
  static void grow(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  }
};

}  // namespace ganopc::litho
