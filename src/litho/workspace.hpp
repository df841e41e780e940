// LithoWorkspace: reusable scratch buffers for the SOCS forward and adjoint
// passes and the PV-band field.
//
// Both passes run on the kernels' M x M band grid (SocsKernels::band_grid,
// DESIGN.md §7). One aerial image costs 1 full-grid mask FFT + N_h band
// IFFTs (+ one band-to-full upsample when M < N); one gradient adds, per dose
// corner, a low-pass of dE/dI and N_h band FFTs, then a single full-grid
// inverse for the whole frequency-domain adjoint sum. On one thread the
// passes run kernel-major: each field or adjoint spectrum is added into the
// per-pixel sum while cache-hot, and the next kernel overwrites it. On a
// pool all N_h are formed in parallel, then summed (one dispatch each, the
// cheaper order there). A workspace therefore holds one coherent field for
// an aerial image on one thread (N_h on a pool), all N_h for a gradient (the
// adjoint re-reads them at every dose corner), and one adjoint spectrum on
// one thread (N_h on a pool): 1.1 MB for a one-thread gradient at 128^2 /
// 16 nm with the default 24 Abbe kernels (bytes()). pv_band adds its ~2 nm
// super-sampled field and spectrum: 12 MB at 128^2 / 16 nm, 48 MB at
// 256^2 / 16 nm (8x per axis). Allocating these buffers afresh on every call
// (as the seed engine did) dominates small-grid runtimes and fragments the
// heap under ILT's hundreds of iterations. A workspace owns them and only
// ever grows, so repeated `gradient_into` / `pv_band` calls allocate no
// scratch.
//
// A workspace is NOT thread-safe: it belongs to one simulation call at a
// time. The convenience wrappers in LithoSim (aerial, pv_band, ...) use one
// workspace per thread, kept for the thread's life: a thread that ever ran
// pv_band keeps its 12 MB, and so does each pool worker after an ILT solve
// with PVB checks (Dataset::generate under a ledger). One set per thread is
// what lets a session's solver and its re-scoring share the buffers; the
// allocator kept as much after the former per-call allocation (DESIGN.md
// §7). Batch APIs give each worker its own.
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
    std::size_t total = (spec.capacity() + mask_hat.capacity() + band_spec.capacity() +
                         fine_spec.capacity()) *
                            sizeof(fft::cfloat) +
                        (x.capacity() + band_real.capacity() + fine.capacity() +
                         weights.capacity() + aerial_scratch.data.capacity()) *
                            sizeof(float) +
                        acc.capacity() * sizeof(double);
    for (const auto& f : fields) total += f.capacity() * sizeof(fft::cfloat);
    for (const auto& f : adjoint) total += f.capacity() * sizeof(fft::cfloat);
    return total;
  }

  /// Grow (never shrink) the forward-pass buffers: `num_fields` coherent
  /// fields of `band_px` (M^2) values for a set of `kernels`; `full_px` (N^2)
  /// sizes the full-grid scratch. Returns true when any buffer actually grew
  /// — the caller bumps the `litho.workspace.grows` counter, which the engine
  /// contract test asserts stays flat across steady-state submits.
  bool ensure_forward(std::size_t num_fields, int kernels, std::size_t band_px,
                      std::size_t full_px) {
    const std::size_t before = bytes();
    grow(mask_hat, band_px);
    if (fields.size() < num_fields) fields.resize(num_fields);
    for (auto& f : fields) grow(f, band_px);
    grow(weights, static_cast<std::size_t>(kernels));
    grow(acc, band_px);
    if (band_px < full_px) {
      grow(spec, full_px);
      grow(band_spec, band_px);
      grow(band_real, band_px);
    }
    return bytes() != before;
  }

  /// Grow the adjoint-pass buffers (gradient only): `num_adjoint` spectra of
  /// `band_px` values, dE/dI and the aerial scratch. Returns true when any
  /// buffer actually grew.
  bool ensure_adjoint(std::size_t num_adjoint, std::size_t band_px, std::size_t full_px) {
    const std::size_t before = bytes();
    if (adjoint.size() < num_adjoint) adjoint.resize(num_adjoint);
    for (auto& f : adjoint) grow(f, band_px);
    grow(x, full_px);
    grow(aerial_scratch.data, full_px);
    return bytes() != before;
  }

  /// Grow the PV-band buffers (pv_band only): the `full_px` (N^2) spectrum
  /// and the `fine_px` super-sampled field with its spectrum. Returns true
  /// when any buffer actually grew.
  bool ensure_upsample(std::size_t full_px, std::size_t fine_px) {
    const std::size_t before = bytes();
    grow(spec, full_px);
    grow(fine_spec, fine_px);
    grow(fine, fine_px);
    return bytes() != before;
  }

  /// Full-grid (N^2) spectrum scratch (M < N, or pv_band): the mask and
  /// dE/dI transforms, the band-to-full upsample, the padded adjoint sum and
  /// pv_band's small spectrum.
  std::vector<fft::cfloat> spec;
  /// Band-grid mask spectrum (unshifted layout of the signed window). Once
  /// the fields exist the gradient reuses it for the frequency-domain
  /// adjoint sum over kernels and dose corners.
  std::vector<fft::cfloat> mask_hat;
  /// Coherent fields A_k = IFFT_M(H_k_hat .* mask_hat): all N_h after a
  /// gradient's forward pass, indexed by kernel; an aerial image on one
  /// thread reuses the first as scratch.
  std::vector<std::vector<fft::cfloat>> fields;
  /// Adjoint spectra FFT_M(X .* conj(A_k)) for Eq. (14): one on one thread,
  /// else N_h indexed by kernel. Kept apart from `fields` so multi-dose
  /// gradients reuse the forward fields.
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
  /// pv_band's super-sampled (~2 nm) intensity and its padded spectrum.
  std::vector<float> fine;
  std::vector<fft::cfloat> fine_spec;

 private:
  template <typename T>
  static void grow(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  }
};

}  // namespace ganopc::litho
