// LithoSim: the lithography simulation facade (stand-in for lithosim_v4).
//
// Pipeline (paper Eq. (2)-(3), (11)-(14)):
//   aerial   I = sum_k w_k |M (x) h_k|^2          — Hopkins / SOCS
//   print    Z = 1[I * dose >= I_th]              — constant-threshold resist
//   relaxed  Z = sigmoid(alpha * (I - I_th))      — Eq. (12) for ILT
//   gradient dE/dM_b for E = ||Z - Z_t||_2^2      — Eq. (14) core
//   pv_band  XOR of prints at dose 1 +/- delta    — Table 2 "PVB" column
//
// All images are geom::Grid at the simulator's grid_size/pixel_nm geometry;
// internally the SOCS transforms run on the kernels' band grid (kernels.hpp).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/grid.hpp"
#include "litho/kernels.hpp"
#include "litho/workspace.hpp"

namespace ganopc::litho {

struct ResistConfig {
  /// Exposure threshold I_th. Set <= 0 to auto-calibrate so that the edge of
  /// a large feature prints exactly in place (recommended).
  float threshold = -1.0f;
  /// Steepness of the relaxed resist sigmoid (alpha in Eq. (12)).
  float sigmoid_alpha = 50.0f;
};

class LithoSim {
 public:
  LithoSim(const OpticsConfig& optics, const ResistConfig& resist,
           std::int32_t grid_size, std::int32_t pixel_nm);

  /// Adopt a prebuilt kernel set (from a litho backend, DESIGN.md §15). The
  /// resist threshold is auto-calibrated against *these* kernels unless the
  /// config pins one, so each backend prints a wide feature edge in place.
  LithoSim(SocsKernels kernels, const ResistConfig& resist);

  const SocsKernels& kernels() const { return kernels_; }
  std::int32_t grid_size() const { return kernels_.grid_size(); }
  std::int32_t pixel_nm() const { return kernels_.pixel_nm(); }
  float threshold() const { return threshold_; }
  float sigmoid_alpha() const { return resist_.sigmoid_alpha; }

  /// Aerial image of a (possibly continuous-valued) mask in [0, 1]. Scratch
  /// buffers come from the calling thread's workspace, so repeated calls
  /// reuse them. On one thread the SOCS kernels run kernel-major, each
  /// coherent field added into the per-pixel sum as soon as it is formed; on
  /// the shared thread pool all fields are formed in parallel, then summed.
  /// Every pixel sums its kernels in ascending order, so results are
  /// bit-identical at any thread count.
  geom::Grid aerial(const geom::Grid& mask) const;

  /// Hard resist print of an aerial image at the given dose.
  geom::Grid print(const geom::Grid& aerial_image, float dose = 1.0f) const;

  /// aerial + print in one call.
  geom::Grid simulate(const geom::Grid& mask, float dose = 1.0f) const;

  /// Hard resist prints of a batch of masks at one dose. Masks are simulated
  /// concurrently on the shared thread pool (each worker reuses a per-thread
  /// workspace); a single-element batch falls back to intra-mask parallelism.
  /// Output order matches input order regardless of scheduling.
  std::vector<geom::Grid> simulate_batch(std::span<const geom::Grid> masks,
                                         float dose = 1.0f) const;

  /// Relaxed wafer image (Eq. (12)).
  geom::Grid relaxed_wafer(const geom::Grid& aerial_image, float dose = 1.0f) const;

  struct ForwardResult {
    geom::Grid aerial_image;
    geom::Grid wafer_relaxed;
    double error = 0.0;  ///< ||Z_relaxed - Z_t||_2^2
  };

  /// Forward pass with the relaxed resist; used inside ILT iterations.
  /// `dose` scales the exposure (1.0 = nominal; PV-aware flows pass corner
  /// doses).
  ForwardResult forward_relaxed(const geom::Grid& mask_b, const geom::Grid& target,
                                float dose = 1.0f) const;

  /// dE/dM_b with E = ||Z - Z_t||_2^2 through the relaxed resist — the
  /// convolutional core of Eq. (14), evaluated at the given dose. The caller
  /// chains the mask-relaxation factor beta * M_b (1 - M_b) (Eq. (13)) if it
  /// optimizes an unbounded mask parameterization.
  geom::Grid gradient(const geom::Grid& mask_b, const geom::Grid& target,
                      float dose = 1.0f) const;

  /// Eq. (14) gradient averaged over `doses` (the PV-aware dose-corner
  /// objective; a single dose reproduces `gradient`). The coherent fields A_k
  /// are computed once and shared by every dose corner, and the adjoint sum
  /// over kernels and corners accumulates in the frequency domain on the
  /// band grid: D corners cost one forward pass (1 mask FFT + N_h band
  /// IFFTs + upsample), D * (low-pass of dE/dI + N_h band FFTs) and a single
  /// full-grid inverse (DESIGN.md §7). `ws` holds all N_h fields and, on
  /// one thread, a single adjoint spectrum (kernel-major, as in aerial());
  /// reductions are fixed-order (deterministic at any thread count).
  /// `grad_out` is resized to the mask geometry.
  void gradient_into(const geom::Grid& mask_b, const geom::Grid& target,
                     std::span<const float> doses, geom::Grid& grad_out,
                     LithoWorkspace& ws) const;

  struct PvBand {
    geom::Grid outer;          ///< print at dose (1 + delta)
    geom::Grid inner;          ///< print at dose (1 - delta)
    std::int64_t area_nm2 = 0; ///< XOR area between the two contours
  };

  /// Process-variation band under +/- dose error (paper: +/-2%). The band
  /// area is measured on a ~2 nm super-sampled intensity field whose buffers
  /// (12 MB at 128^2 / 16 nm) stay in the calling thread's workspace.
  PvBand pv_band(const geom::Grid& mask, float dose_delta = 0.02f) const;

  /// Squared L2 error between the nominal print of `mask` and `target`
  /// measured in pixels (multiply by pixel_nm^2 for nm^2).
  double l2_error(const geom::Grid& mask, const geom::Grid& target) const;

 private:
  void check_geometry(const geom::Grid& g) const;

  SocsKernels kernels_;
  ResistConfig resist_;
  float threshold_;
};

/// Test hook: the calling thread's workspace, the one aerial(), simulate(),
/// forward_relaxed(), gradient() and pv_band() use.
const LithoWorkspace& thread_workspace();

}  // namespace ganopc::litho
