#include "litho/kernels.hpp"

#include <cmath>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ganopc::litho {

namespace {

// Flipped kernel: value at (-f) mod N per axis.
std::vector<std::complex<float>> flip_freq(const std::vector<std::complex<float>>& hat,
                                           std::int32_t grid) {
  std::vector<std::complex<float>> flipped(hat.size());
  for (std::int32_t r = 0; r < grid; ++r) {
    const std::int32_t nr = (grid - r) % grid;
    for (std::int32_t c = 0; c < grid; ++c) {
      const std::int32_t nc = (grid - c) % grid;
      flipped[static_cast<std::size_t>(r) * grid + c] =
          hat[static_cast<std::size_t>(nr) * grid + nc];
    }
  }
  return flipped;
}

}  // namespace

void SocsKernels::validate_geometry() const {
  GANOPC_CHECK_MSG(config_.valid(), "invalid optics configuration");
  GANOPC_CHECK_MSG(fft::is_pow2(static_cast<std::size_t>(grid_)),
                   "grid size must be a power of two");
  GANOPC_CHECK(pixel_nm_ > 0);
  // The grid must resolve the full pupil: the highest passed frequency is
  // (1 + sigma_outer) * NA / lambda, which must be below Nyquist.
  const double f_max = (1.0 + config_.sigma_outer) * config_.cutoff();
  const double nyquist = 0.5 / pixel_nm_;
  GANOPC_CHECK_MSG(f_max < nyquist, "pixel size too coarse for the pupil: f_max="
                                        << f_max << " >= nyquist=" << nyquist);
}

void SocsKernels::adopt(TccKernelSet set) {
  GANOPC_CHECK_MSG(!set.kernels_hat.empty() &&
                       set.kernels_hat.size() == set.weights.size(),
                   "kernel set must carry one weight per kernel");
  const std::size_t npx = static_cast<std::size_t>(grid_) * grid_;
  for (std::size_t k = 0; k < set.kernels_hat.size(); ++k) {
    GANOPC_CHECK_MSG(set.kernels_hat[k].size() == npx,
                     "kernel " << k << " is not on the " << grid_ << "x" << grid_
                               << " grid");
    GANOPC_CHECK_MSG(std::isfinite(set.weights[k]) && set.weights[k] >= 0.0f,
                     "kernel weights must be finite and nonnegative");
    GANOPC_CHECK_MSG(k == 0 || set.weights[k] <= set.weights[k - 1],
                     "kernel weights must be nonincreasing");
    freq_kernels_flipped_.push_back(flip_freq(set.kernels_hat[k], grid_));
    freq_kernels_.push_back(std::move(set.kernels_hat[k]));
    weights_.push_back(set.weights[k]);
  }
  GANOPC_CHECK_MSG(std::isfinite(set.captured_energy) &&
                       set.captured_energy >= 0.0 && set.captured_energy <= 1.0 + 1e-9,
                   "captured_energy must be a fraction in [0, 1]");
  captured_energy_ = std::min(set.captured_energy, 1.0);
}

SocsKernels::SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
                         std::int32_t pixel_nm, TccKernelSet set)
    : config_(config), grid_(grid_size), pixel_nm_(pixel_nm) {
  validate_geometry();
  adopt(std::move(set));
}

SocsKernels::SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
                         std::int32_t pixel_nm)
    : config_(config), grid_(grid_size), pixel_nm_(pixel_nm) {
  validate_geometry();

  const auto points = sample_annular_source(config, config.num_kernels);
  const std::size_t n = static_cast<std::size_t>(grid_) * grid_;
  const double df = 1.0 / (static_cast<double>(grid_) * pixel_nm);
  const double cutoff2 = config.cutoff() * config.cutoff();
  const double lambda = config.wavelength_nm;

  freq_kernels_.reserve(points.size());
  freq_kernels_flipped_.reserve(points.size());
  weights_.reserve(points.size());
  for (const auto& p : points) {
    std::vector<std::complex<float>> hat(n, {0.0f, 0.0f});
    for (std::int32_t r = 0; r < grid_; ++r) {
      const std::int32_t rr = r <= grid_ / 2 ? r : r - grid_;  // wrapped index
      const double fy = rr * df;
      for (std::int32_t c = 0; c < grid_; ++c) {
        const std::int32_t cc = c <= grid_ / 2 ? c : c - grid_;
        const double fx = cc * df;
        // Pupil evaluated at the frequency shifted by the source point: an
        // oblique illumination tilts the spectrum across the pupil.
        const double gx = fx + p.fx, gy = fy + p.fy;
        const double g2 = gx * gx + gy * gy;
        if (g2 >= cutoff2) continue;
        if (config.defocus_nm != 0.0) {
          // Paraxial defocus phase: exp(-i * pi * lambda * z * |f|^2).
          const double phase = -M_PI * lambda * config.defocus_nm * g2;
          hat[static_cast<std::size_t>(r) * grid_ + c] = {
              static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase))};
        } else {
          hat[static_cast<std::size_t>(r) * grid_ + c] = {1.0f, 0.0f};
        }
      }
    }
    freq_kernels_flipped_.push_back(flip_freq(hat, grid_));
    freq_kernels_.push_back(std::move(hat));
    weights_.push_back(static_cast<float>(p.weight));
  }
}

const std::vector<std::complex<float>>& SocsKernels::freq_kernel(int k) const {
  return freq_kernels_.at(static_cast<std::size_t>(k));
}

const std::vector<std::complex<float>>& SocsKernels::freq_kernel_flipped(int k) const {
  return freq_kernels_flipped_.at(static_cast<std::size_t>(k));
}

std::vector<std::complex<float>> SocsKernels::spatial_kernel(int k) const {
  auto spatial = freq_kernels_.at(static_cast<std::size_t>(k));
  fft::fft_2d(spatial, static_cast<std::size_t>(grid_), static_cast<std::size_t>(grid_),
              /*inverse=*/true);
  fft::fftshift_2d(spatial, static_cast<std::size_t>(grid_),
                   static_cast<std::size_t>(grid_));
  return spatial;
}

}  // namespace ganopc::litho
