#include "litho/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ganopc::litho {

namespace {

using cfloat = std::complex<float>;

// Flipped kernel: value at (-f) mod N per axis.
std::vector<cfloat> flip_freq(const std::vector<cfloat>& hat, std::int32_t grid) {
  std::vector<cfloat> flipped(hat.size());
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

// Signed frequency of unshifted index i on an n-point axis.
std::int32_t signed_freq(std::int32_t i, std::int32_t n) { return i <= n / 2 ? i : i - n; }

}  // namespace

void SocsKernels::build_band_tables() {
  const std::int32_t n = grid_;
  // Per kernel, the signed-frequency box [lo, hi] of its nonzero bins per
  // axis. w: the widest box side of any kernel; reach: the largest |signed
  // frequency| of any nonzero bin.
  struct Box {
    std::int32_t lo_r, hi_r, lo_c, hi_c;
  };
  std::vector<Box> boxes;
  std::int32_t w = 1, reach = 0;
  for (const auto& hat : freq_kernels_) {
    Box b{n, -n, n, -n};
    for (std::int32_t r = 0; r < n; ++r)
      for (std::int32_t c = 0; c < n; ++c) {
        if (hat[static_cast<std::size_t>(r) * n + c] == cfloat{}) continue;
        const std::int32_t fr = signed_freq(r, n), fc = signed_freq(c, n);
        b.lo_r = std::min(b.lo_r, fr);
        b.hi_r = std::max(b.hi_r, fr);
        b.lo_c = std::min(b.lo_c, fc);
        b.hi_c = std::max(b.hi_c, fc);
      }
    boxes.push_back(b);
    if (b.lo_r > b.hi_r) continue;  // an all-zero kernel constrains nothing
    w = std::max({w, b.hi_r - b.lo_r + 1, b.hi_c - b.lo_c + 1});
    reach = std::max({reach, -b.lo_r, b.hi_r, -b.lo_c, b.hi_c});
  }
  reach_ = reach;
  // |A_k|^2 and the adjoint products span 2w - 1 bins; M >= 2w holds them
  // without aliasing and leaves the band Nyquist line empty.
  band_ = static_cast<std::int32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(n),
                            fft::next_pow2(2 * static_cast<std::size_t>(w))));
  // A box [lo, hi] is the circular run starting at bin lo mod M, on the band
  // grid and (M = N) on the full grid alike.
  const auto um = static_cast<std::size_t>(band_);
  for (const Box& b : boxes) {
    if (b.lo_r > b.hi_r) {
      band_supports_.push_back({});
      continue;
    }
    const auto run = [um](std::int32_t lo, std::int32_t hi) {
      return fft::Lines{static_cast<std::size_t>(lo + static_cast<std::int32_t>(um)) % um,
                        static_cast<std::size_t>(hi - lo + 1)};
    };
    band_supports_.push_back({run(b.lo_r, b.hi_r), run(b.lo_c, b.hi_c)});
  }
  if (band_ == n) {
    for (const auto& hat : freq_kernels_) band_flipped_.push_back(flip_freq(hat, n));
    return;
  }
  GANOPC_CHECK_MSG(reach < band_ / 2, "kernel spectrum reaches frequency bin "
                                          << reach << ", outside the " << band_
                                          << "-point band window");
  const std::int32_t m = band_;
  for (const auto& hat : freq_kernels_) {
    std::vector<cfloat> band(um * um);
    for (std::int32_t r = 0; r < m; ++r) {
      const std::int32_t sr = (signed_freq(r, m) + n) % n;
      for (std::int32_t c = 0; c < m; ++c) {
        const std::int32_t sc = (signed_freq(c, m) + n) % n;
        band[static_cast<std::size_t>(r) * m + c] = hat[static_cast<std::size_t>(sr) * n + sc];
      }
    }
    band_flipped_.push_back(flip_freq(band, m));
    band_kernels_.push_back(std::move(band));
  }
}

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
  build_band_tables();
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
  weights_.reserve(points.size());
  for (const auto& p : points) {
    std::vector<cfloat> hat(n, {0.0f, 0.0f});
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
    freq_kernels_.push_back(std::move(hat));
    weights_.push_back(static_cast<float>(p.weight));
  }
  build_band_tables();
}

const std::vector<cfloat>& SocsKernels::freq_kernel(int k) const {
  return freq_kernels_.at(static_cast<std::size_t>(k));
}

const std::vector<cfloat>& SocsKernels::band_kernel(int k) const {
  return band_kernels_.empty() ? freq_kernel(k)
                               : band_kernels_.at(static_cast<std::size_t>(k));
}

const std::vector<cfloat>& SocsKernels::band_kernel_flipped(int k) const {
  return band_flipped_.at(static_cast<std::size_t>(k));
}

std::vector<cfloat> SocsKernels::spatial_kernel(int k) const {
  auto spatial = freq_kernels_.at(static_cast<std::size_t>(k));
  fft::fft_2d(spatial, static_cast<std::size_t>(grid_), static_cast<std::size_t>(grid_),
              /*inverse=*/true);
  fft::fftshift_2d(spatial, static_cast<std::size_t>(grid_),
                   static_cast<std::size_t>(grid_));
  return spatial;
}

}  // namespace ganopc::litho
