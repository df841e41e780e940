// Optical system description for the partially coherent imaging model.
//
// The paper's lithography engine (lithosim_v4, ICCAD-2013 contest) ships
// pre-computed SOCS kernels from a proprietary 193nm immersion model. We
// rebuild the equivalent physics from first principles: an annular source
// sampled at discrete points (Abbe's method) and an ideal circular pupil.
// Each source point contributes one coherent kernel h_k with weight w_k,
// which is *exactly* the weighted sum-of-coherent-systems of Eq. (1)-(2)
// with N_h = 24.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace ganopc::litho {

struct OpticsConfig {
  double wavelength_nm = 193.0;  ///< ArF excimer
  double na = 1.35;              ///< immersion numerical aperture
  double sigma_inner = 0.5;      ///< annular source inner partial coherence
  double sigma_outer = 0.8;      ///< annular source outer partial coherence
  int num_kernels = 24;          ///< N_h in Eq. (2); the paper picks 24
  double defocus_nm = 0.0;       ///< optional defocus aberration

  /// Pupil cutoff spatial frequency NA / lambda (cycles per nm).
  double cutoff() const { return na / wavelength_nm; }

  bool valid() const {
    // Finiteness first: a NaN/Inf smuggled into any optical parameter would
    // poison every kernel (and the TCC eigensolve) silently — NaN compares
    // false, so the range checks alone would not catch wavelength or defocus.
    return std::isfinite(wavelength_nm) && std::isfinite(na) &&
           std::isfinite(sigma_inner) && std::isfinite(sigma_outer) &&
           std::isfinite(defocus_nm) && wavelength_nm > 0 && na > 0 &&
           sigma_inner >= 0 && sigma_outer > sigma_inner && sigma_outer <= 1.0 &&
           num_kernels > 0;
  }
};

/// One Abbe source sample: an oblique plane-wave direction and its weight.
struct SourcePoint {
  double fx = 0.0;   ///< frequency offset (cycles/nm)
  double fy = 0.0;
  double weight = 0.0;
};

/// Sample the annular source at `count` points on concentric rings.
/// Weights are uniform and sum to 1. A ring with an odd number of points
/// (11 and 13 at the default 24) holds no antipodal pairs, so the sampled
/// source is not symmetric under inversion. At zero defocus images do not
/// depend on that (|A_s| = |A_-s| for a real mask and a real pupil); with
/// defocus they do, and a 180-degree-symmetric mask then images slightly
/// asymmetrically.
std::vector<SourcePoint> sample_annular_source(const OpticsConfig& config, int count);

}  // namespace ganopc::litho
