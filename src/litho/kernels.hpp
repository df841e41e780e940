// SOCS kernel set on a concrete simulation grid.
//
// Kernels are stored in the frequency domain (unshifted FFT layout), so the
// aerial image of Eq. (2) is one forward FFT of the mask, num_kernels complex
// multiplies, and num_kernels inverse FFTs:
//   A_k = IFFT( H_k_hat .* FFT(M) ),   I = sum_k w_k |A_k|^2.
// Each H_k_hat is a pupil disk shifted by its Abbe source point, with an
// optional paraxial defocus phase.
//
// The optics are band-limited, so the hot paths do not run on the full
// N x N grid: every kernel spectrum fits in a per-axis box of w bins, hence
// A_k, |A_k|^2 and every adjoint term of Eq. (14) are represented exactly on
// the M x M band grid with M = min(N, smallest power of two >= 2w)
// (DESIGN.md §7). The set keeps band copies of H_k_hat and of the flipped
// H_k_hat(-f) the gradient needs; at M = N they are the full tables. It also
// records, per kernel, the circular runs of band-grid rows and columns its
// spectrum occupies, so the band transforms skip every line that is zero on
// input or unread on output (fft.hpp line pruning).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "fft/fft.hpp"
#include "litho/optics.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {

class SocsKernels {
 public:
  /// Build kernels for a grid_size x grid_size simulation window with the
  /// given physical pixel size. grid_size must be a power of two.
  SocsKernels(const OpticsConfig& config, std::int32_t grid_size, std::int32_t pixel_nm);

  /// Adopt a prebuilt kernel set (e.g. truncated TCC eigen-kernels from a
  /// litho backend). The set's weights must be nonincreasing and finite; the
  /// flipped kernels for the adjoint pass are derived here so every consumer
  /// of the hot paths sees the same invariants as the Abbe constructor.
  SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
              std::int32_t pixel_nm, TccKernelSet set);

  std::int32_t grid_size() const { return grid_; }
  std::int32_t pixel_nm() const { return pixel_nm_; }
  int count() const { return static_cast<int>(weights_.size()); }
  const OpticsConfig& config() const { return config_; }

  /// Fraction of the imaging operator's trace the kernel set retains, in
  /// [0, 1]. Exactly 1 for the Abbe construction (every sampled source point
  /// keeps its kernel); < 1 for truncated TCC sets, where `1 - captured
  /// energy` bounds the relative aerial-image L2 error against the
  /// untruncated reference (DESIGN.md §15).
  double captured_energy() const { return captured_energy_; }

  /// Frequency-domain kernel k (grid*grid complex values, unshifted layout).
  const std::vector<std::complex<float>>& freq_kernel(int k) const;

  /// Side M of the band grid the SOCS forward and adjoint passes run on: the
  /// smallest power of two >= 2w (w = the widest per-axis support box of any
  /// kernel spectrum), capped at grid_size(). Below grid_size(), every
  /// nonzero kernel bin lies strictly inside the signed window (-M/2, M/2).
  std::int32_t band_grid() const { return band_; }

  /// Kernel k on the band grid: band_grid()^2 values, unshifted layout of the
  /// signed window. Is freq_kernel(k) when band_grid() == grid_size().
  const std::vector<std::complex<float>>& band_kernel(int k) const;

  /// band_kernel(k) at negated frequencies, H_k_hat[(-f) mod M] — the
  /// transfer function of the flipped kernel, which the adjoint pass reads.
  const std::vector<std::complex<float>>& band_kernel_flipped(int k) const;

  /// The circular runs of band-grid rows and columns that hold every
  /// nonzero bin of band_kernel(k) (empty runs for an all-zero kernel).
  /// band_kernel_flipped(k) occupies their Lines::mirrored.
  struct BandSupport {
    fft::Lines rows;
    fft::Lines cols;
  };
  const BandSupport& band_support(int k) const {
    return band_supports_.at(static_cast<std::size_t>(k));
  }

  /// Largest |signed frequency| of any nonzero kernel bin on either axis:
  /// every SOCS spectrum product stays within it (< band_grid() / 2 when
  /// band_grid() < grid_size()).
  std::int32_t band_reach() const { return reach_; }

  float weight(int k) const { return weights_.at(static_cast<std::size_t>(k)); }

  /// Spatial-domain kernel (centered via fftshift) — used by tests and for
  /// kernel visualization; the hot paths never leave the frequency domain.
  std::vector<std::complex<float>> spatial_kernel(int k) const;

 private:
  void validate_geometry() const;
  void adopt(TccKernelSet set);
  void build_band_tables();

  OpticsConfig config_;
  std::int32_t grid_;
  std::int32_t pixel_nm_;
  double captured_energy_ = 1.0;
  std::vector<float> weights_;
  std::int32_t band_ = 0;
  std::int32_t reach_ = 0;
  std::vector<BandSupport> band_supports_;
  std::vector<std::vector<std::complex<float>>> freq_kernels_;
  /// Band copies of freq_kernels_; empty when band_ == grid_.
  std::vector<std::vector<std::complex<float>>> band_kernels_;
  std::vector<std::vector<std::complex<float>>> band_flipped_;
};

}  // namespace ganopc::litho
