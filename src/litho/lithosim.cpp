#include "litho/lithosim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "litho/resist_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc::litho {

namespace {

using fft::cfloat;

/// Per-thread scratch for the workspace-free convenience wrappers. Worker
/// threads of the shared pool keep their workspace warm across batches.
LithoWorkspace& tls_workspace() {
  static thread_local LithoWorkspace ws;
  return ws;
}

/// Point `g` at the simulator geometry without reallocating when the pixel
/// count already matches.
void reshape_like(geom::Grid& g, std::int32_t n, std::int32_t pixel_nm,
                  const geom::Grid& src) {
  g.rows = n;
  g.cols = n;
  g.pixel_nm = pixel_nm;
  g.origin_x = src.origin_x;
  g.origin_y = src.origin_y;
  g.data.resize(static_cast<std::size_t>(n) * n);
}

// Index i of an m-point unshifted axis mapped to the bin of the same signed
// frequency on an n-point axis (m <= n; the band Nyquist i = m/2 maps to -m/2).
inline std::size_t band_to_full(std::size_t i, std::size_t m, std::size_t n) {
  return i < m / 2 ? i : i + n - m;
}

// Low-pass an n x n spectrum onto the m x m band grid: copy the signed window
// (-m/2, m/2) per axis, scaled by (m/n)^2 so the band-grid inverse transform
// samples the same band-limited signal. The band Nyquist row and column are
// zeroed, so a Hermitian input stays Hermitian (its signal stays real).
void crop_spectrum(const cfloat* full, std::size_t n, cfloat* band, std::size_t m) {
  const float scale = static_cast<float>(m * m) / static_cast<float>(n * n);
  for (std::size_t r = 0; r < m; ++r) {
    const cfloat* src = full + band_to_full(r, m, n) * n;
    cfloat* dst = band + r * m;
    for (std::size_t c = 0; c < m; ++c)
      dst[c] = (r == m / 2 || c == m / 2) ? cfloat{} : scale * src[band_to_full(c, m, n)];
  }
}

// full = scale * (P + conj(P(-f))) with P the zero-padding of the m x m band
// spectrum `band` onto n x n. That is the Hermitian part of P, so
// irfft_2d(full) = scale * 2 Re(IFFT_n(P)) at half the cost of a complex
// inverse. Each +/-f pair is read before it is written, so at m == n `full`
// may be `band` itself. Assumes the band Nyquist line is empty when m < n.
// The inverse reads only half-spectrum columns [0, cols): at m < n only
// those are zeroed first (pairs also land in the unread upper columns).
void fold_pad_spectrum(const cfloat* band, std::size_t m, cfloat* full, std::size_t n,
                       float scale, std::size_t cols) {
  if (full != band)
    for (std::size_t r = 0; r < n; ++r) std::fill(full + r * n, full + r * n + cols, cfloat{});
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t rm = (m - r) & (m - 1);
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t cm = (m - c) & (m - 1);
      if (rm * m + cm < r * m + c) continue;  // pair already folded
      const cfloat a = band[r * m + c], b = band[rm * m + cm];
      full[band_to_full(r, m, n) * n + band_to_full(c, m, n)] = scale * (a + std::conj(b));
      full[band_to_full(rm, m, n) * n + band_to_full(cm, m, n)] = scale * (b + std::conj(a));
    }
  }
}

// Kernels per group of the SOCS passes (for_each_kernel_group). On one
// thread kernels go one at a time: each coherent field or adjoint spectrum is
// added into the sum while it is still in cache, and one scratch buffer is
// live instead of N_h (all N_h first streamed ~3 MB per gradient through a
// 2 MB L2). On a pool all N_h form one group — one dispatch for the
// transforms, one for the sum — since a dispatch per group of pool-size
// kernels costs more than the cache gain (EXPERIMENTS.md).
std::size_t kernel_group_width(std::size_t num_k) {
  return parallel_width() == 1 ? 1 : num_k;
}

// Kernel-major loop of the SOCS passes. transform(k, slot) forms kernel k's
// product and band transform in scratch slot k - (group start); a group's
// transforms run one kernel per pool worker, where the nested FFT parallelism
// degrades to serial (no oversubscription), and a lone kernel runs on the
// caller with its transform parallel over lines. accumulate(k, slot, b, e)
// then adds kernel k into the sum over index range [b, e); each chunk of the
// range takes the group's kernels in ascending k. Every pixel therefore sums
// its kernels in ascending k whatever the grouping, and chunk bounds are
// quantum-aligned (parallel_for_chunks), so the output is bit-identical at
// any thread count.
template <typename Transform, typename Accumulate>
void for_each_kernel_group(std::size_t num_k, std::size_t width, std::size_t range,
                           std::size_t serial_threshold, Transform&& transform,
                           Accumulate&& accumulate) {
  for (std::size_t kb = 0; kb < num_k; kb += width) {
    const std::size_t ke = std::min(num_k, kb + width);
    if (ke - kb == 1) {
      transform(kb, std::size_t{0});
    } else {
      ThreadPool::instance().parallel_blocks(
          ke - kb, [&](std::size_t /*block*/, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) transform(kb + i, i);
          });
    }
    parallel_for_chunks(0, range, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = kb; k < ke; ++k) accumulate(k, k - kb, b, e);
    }, serial_threshold);
  }
}

// The one SOCS forward implementation (Eq. 2), on the kernels' band grid
// (M = band_grid()): full-grid mask FFT cropped to the band, per-kernel
// coherent fields A_k = IFFT_M(H_k_hat .* mask_hat), each group of them
// added into I = sum_k w_k |A_k|^2 per pixel in ascending-k order
// (for_each_kernel_group), then I is Fourier-upsampled to the full grid.
// H_k_hat is zero outside its support box, so the product is formed on the
// box only (its columns widened to whole vectors, as a full-length product
// would group them) and the rest of the field is zeroed: the kernel table is
// read where it is nonzero only, and the row pass skips the zero rows. Where
// the full product left a signed zero the field holds +0, which can change
// only the sign of an exactly zero output (fft.hpp line pruning).
// |A_k|^2 spans fewer than M bins per axis, so the band-grid samples
// determine I exactly. At M = N the crop and upsample are skipped.
// `keep_fields` keeps every A_k in ws.fields[k] for the gradient's adjoint;
// otherwise one group's worth of field scratch is reused. Shared by
// LithoSim::aerial, the gradient's forward pass and threshold
// calibration, so tests cover one implementation.
void socs_forward(const SocsKernels& kernels, const geom::Grid& mask,
                  geom::Grid& aerial_image, LithoWorkspace& ws, bool keep_fields) {
  const std::int32_t n = kernels.grid_size();
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(kernels.band_grid());
  const bool banded = um < un;
  const std::size_t mpx = um * um;
  const auto num_k = static_cast<std::size_t>(kernels.count());
  const std::size_t width = kernel_group_width(num_k);
  if (ws.ensure_forward(keep_fields ? num_k : width, kernels.count(), mpx, un * un) &&
      obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();

  // Masks are real, so the forward transform runs the half-cost real-input
  // path; the full Hermitian spectrum comes out in the usual layout.
  if (banded) {
    // The crop reads columns (-M/2, M/2): half-spectrum columns [0, M/2).
    fft::rfft_2d(mask.data.data(), ws.spec.data(), un, un, um / 2);
    crop_spectrum(ws.spec.data(), un, ws.mask_hat.data(), um);
  } else {
    fft::rfft_2d(mask.data.data(), ws.mask_hat.data(), un, un);
  }

  for (std::size_t k = 0; k < num_k; ++k) ws.weights[k] = kernels.weight(static_cast<int>(k));

  reshape_like(aerial_image, n, kernels.pixel_nm(), mask);
  float* intensity = banded ? ws.band_real.data() : aerial_image.data.data();
  double* acc = ws.acc.data();
  std::fill(acc, acc + mpx, 0.0);
  const fft::VecOps& ops = fft::vec_ops();
  const auto field = [&](std::size_t k, std::size_t slot) {
    return ws.fields[keep_fields ? k : slot].data();
  };
  for_each_kernel_group(
      num_k, width, mpx, /*serial_threshold=*/1024,
      [&](std::size_t k, std::size_t slot) {
        cfloat* f = field(k, slot);
        const int kk = static_cast<int>(k);
        const SocsKernels::BandSupport& support = kernels.band_support(kk);
        const fft::Lines cols = um < 4 ? fft::Lines::all(um) : support.cols.widened(4, um);
        const cfloat* hat = kernels.band_kernel(kk).data();
        for (std::size_t r = 0; r < um; ++r) {
          cfloat* row = f + r * um;
          std::fill(row, row + um, cfloat{});
          if (!support.rows.contains(r, um)) continue;
          fft::for_each_range(cols, um, [&](std::size_t a, std::size_t b) {
            const std::size_t i = r * um + a;
            ops.cmul(ws.mask_hat.data() + i, hat + i, row + a, b - a);
          });
        }
        fft::fft_2d(f, um, um, true, support.rows, fft::Lines::all(um));
      },
      [&](std::size_t k, std::size_t slot, std::size_t b, std::size_t e) {
        ops.norm_weighted_accum(field(k, slot) + b, ws.weights[k], acc + b, e - b);
      });
  for (std::size_t i = 0; i < mpx; ++i) intensity[i] = static_cast<float>(acc[i]);
  if (banded)
    fft::fourier_upsample_into(intensity, um, um, un / um, ws.band_spec.data(),
                               ws.spec.data(), aerial_image.data.data());
}

// Threshold calibration: image a wide vertical stripe and take the intensity
// at its geometric edge, so large features print at drawn size. Runs through
// the same socs_forward path as every aerial image.
float calibrate_threshold(const SocsKernels& kernels) {
  const std::int32_t n = kernels.grid_size();
  geom::Grid stripe(n, n, kernels.pixel_nm());
  const std::int32_t c0 = n / 4, c1 = 3 * n / 4;
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = c0; c < c1; ++c) stripe.at(r, c) = 1.0f;

  geom::Grid intensity;
  LithoWorkspace ws;
  socs_forward(kernels, stripe, intensity, ws, /*keep_fields=*/false);
  // The geometric edge lies between pixel centers c0-1 and c0; average the
  // two along the stripe's mid row.
  const float* mid = intensity.data.data() + static_cast<std::size_t>(n / 2) * n;
  return 0.5f * (mid[c0 - 1] + mid[c0]);
}

}  // namespace

const LithoWorkspace& thread_workspace() { return tls_workspace(); }

LithoSim::LithoSim(const OpticsConfig& optics, const ResistConfig& resist,
                   std::int32_t grid_size, std::int32_t pixel_nm)
    : kernels_(optics, grid_size, pixel_nm), resist_(resist) {
  GANOPC_CHECK(resist.sigmoid_alpha > 0.0f);
  threshold_ = resist.threshold > 0.0f ? resist.threshold : calibrate_threshold(kernels_);
}

LithoSim::LithoSim(SocsKernels kernels, const ResistConfig& resist)
    : kernels_(std::move(kernels)), resist_(resist) {
  GANOPC_CHECK(resist.sigmoid_alpha > 0.0f);
  threshold_ = resist.threshold > 0.0f ? resist.threshold : calibrate_threshold(kernels_);
}

void LithoSim::check_geometry(const geom::Grid& g) const {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     g.rows == grid_size() && g.cols == grid_size(),
                     "grid " << g.rows << "x" << g.cols
                             << " does not match simulator " << grid_size() << "x"
                             << grid_size());
}

geom::Grid LithoSim::aerial(const geom::Grid& mask) const {
  GANOPC_OBS_SPAN("litho.aerial");
  check_geometry(mask);
  geom::Grid out;
  socs_forward(kernels_, mask, out, tls_workspace(), /*keep_fields=*/false);
  return out;
}

geom::Grid LithoSim::print(const geom::Grid& aerial_image, float dose) const {
  check_geometry(aerial_image);
  GANOPC_CHECK(dose > 0.0f);
  geom::Grid z = aerial_image;
  for (auto& v : z.data) v = (v * dose >= threshold_) ? 1.0f : 0.0f;
  return z;
}

geom::Grid LithoSim::simulate(const geom::Grid& mask, float dose) const {
  GANOPC_OBS_SPAN("litho.simulate");
  return print(aerial(mask), dose);
}

std::vector<geom::Grid> LithoSim::simulate_batch(std::span<const geom::Grid> masks,
                                                 float dose) const {
  GANOPC_OBS_SPAN("litho.simulate_batch");
  if (obs::metrics_enabled())
    obs::counter("litho.simulate_batch.masks").inc(masks.size());
  GANOPC_CHECK(dose > 0.0f);
  for (const auto& m : masks) check_geometry(m);
  std::vector<geom::Grid> prints(masks.size());
  // Threshold 2: a single mask keeps the calling thread and its intra-mask
  // (per-kernel) parallelism; larger batches parallelize across masks, each
  // worker reusing its per-thread workspace. Output slot i only ever depends
  // on mask i, so scheduling cannot change results.
  parallel_for(0, masks.size(),
               [&](std::size_t i) { prints[i] = simulate(masks[i], dose); },
               /*serial_threshold=*/2);
  return prints;
}

geom::Grid LithoSim::relaxed_wafer(const geom::Grid& aerial_image, float dose) const {
  check_geometry(aerial_image);
  geom::Grid z = aerial_image;
  const float a = resist_.sigmoid_alpha;
  for (auto& v : z.data) v = 1.0f / (1.0f + std::exp(-a * (v * dose - threshold_)));
  return z;
}

LithoSim::ForwardResult LithoSim::forward_relaxed(const geom::Grid& mask_b,
                                                  const geom::Grid& target,
                                                  float dose) const {
  GANOPC_OBS_SPAN("litho.forward_relaxed");
  check_geometry(mask_b);
  check_geometry(target);
  GANOPC_CHECK(dose > 0.0f);
  ForwardResult result;
  socs_forward(kernels_, mask_b, result.aerial_image, tls_workspace(), /*keep_fields=*/false);
  result.wafer_relaxed = relaxed_wafer(result.aerial_image, dose);
  double err = 0.0;
  for (std::size_t i = 0; i < target.data.size(); ++i) {
    const double d = static_cast<double>(result.wafer_relaxed.data[i]) - target.data[i];
    err += d * d;
  }
  result.error = err;
  return result;
}

void LithoSim::gradient_into(const geom::Grid& mask_b, const geom::Grid& target,
                             std::span<const float> doses, geom::Grid& grad_out,
                             LithoWorkspace& ws) const {
  GANOPC_OBS_SPAN("litho.gradient");
  check_geometry(mask_b);
  check_geometry(target);
  GANOPC_CHECK_MSG(!doses.empty(), "gradient needs at least one dose");
  for (const float d : doses) GANOPC_CHECK(d > 0.0f);
  const std::int32_t n = grid_size();
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(kernels_.band_grid());
  const bool banded = um < un;
  const std::size_t npx = un * un, mpx = um * um;
  const auto num_k = static_cast<std::size_t>(kernels_.count());
  const std::size_t width = kernel_group_width(num_k);
  if (ws.ensure_adjoint(width, mpx, npx) && obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();

  // Forward fields A_k are computed once and shared by every dose corner.
  socs_forward(kernels_, mask_b, ws.aerial_scratch, ws, /*keep_fields=*/true);

  // dE/dM = sum_k w_k * 2 Re( (X .* conj(A_k)) correlated with h_k )
  //       = 2 Re( IFFT( sum_k w_k FFT(X .* conj(A_k)) .* H_k_hat(-f) ) ),
  // the frequency-domain form of Eq. (14)'s two convolution terms (conv with
  // H and with H*) fused via the 2 Re(.) identity. IFFT and Re are linear
  // over the real weights, so the sum S over kernels and dose corners is
  // accumulated in the frequency domain on the band grid and inverted once.
  // The band mask spectrum is dead once the fields exist: S reuses it.
  cfloat* sum = ws.mask_hat.data();
  std::fill(sum, sum + mpx, cfloat{});
  const float alpha = resist_.sigmoid_alpha;
  const fft::VecOps& ops = fft::vec_ops();
  const ResistGradFn resist_grad = litho::resist_grad();
  // Lines of the flipped kernel k's band spectrum the adjoint reads: its rows,
  // and its columns widened to groups of four (whole rows below M = 4, where
  // a group would not fit).
  const auto adjoint_lines = [&](std::size_t k) {
    const SocsKernels::BandSupport& s = kernels_.band_support(static_cast<int>(k));
    if (um < 4) return SocsKernels::BandSupport{fft::Lines::all(um), fft::Lines::all(um)};
    return SocsKernels::BandSupport{s.rows.mirrored(um), s.cols.mirrored(um).widened(4, um)};
  };
  // Dose corners accumulate serially (fixed order); within a dose, kernels
  // run kernel-major (for_each_kernel_group) and each bin of S sums them in
  // ascending k — deterministic at any thread count.
  for (const float dose : doses) {
    // X = dE/dI = 2 (Z - Z_t) .* alpha * dose * Z (1 - Z)   (real-valued);
    // the dose factor comes from Z = sigmoid(alpha (dose*I - I_th)).
    parallel_for_chunks(0, npx, [&](std::size_t b, std::size_t e) {
      resist_grad(ws.aerial_scratch.data.data() + b, target.data.data() + b, alpha, dose,
                  threshold_, ws.x.data() + b, e - b);
    }, /*serial_threshold=*/1024);

    // The adjoint reads X only through FFT(X .* conj(A_k)) on the flipped
    // kernel support, i.e. X_hat within 2w - 1 bins: low-passing X onto the
    // band grid is exact, and the band product does not alias there.
    const float* xb = ws.x.data();
    if (banded) {
      fft::rfft_2d(ws.x.data(), ws.spec.data(), un, un, um / 2);
      crop_spectrum(ws.spec.data(), un, ws.band_spec.data(), um);
      fft::irfft_2d(ws.band_spec.data(), ws.band_real.data(), um, um, um / 2);
      xb = ws.band_real.data();
    }
    // Only the bins where H_k_hat(-f) is nonzero are read back, so each
    // adjoint transform's column pass covers just the flipped kernel's
    // columns, widened to whole groups of four so the accumulate runs full
    // vectors only; its rows are the flipped kernel's rows.
    for_each_kernel_group(
        num_k, width, um, /*serial_threshold=*/1024 / um,
        [&](std::size_t k, std::size_t slot) {
          cfloat* buf = ws.adjoint[slot].data();
          ops.cmul_conj_real(xb, ws.fields[k].data(), buf, mpx);
          fft::fft_2d(buf, um, um, false, fft::Lines::all(um), adjoint_lines(k).cols);
        },
        [&](std::size_t k, std::size_t slot, std::size_t r0, std::size_t r1) {
          const cfloat* buf = ws.adjoint[slot].data();
          const cfloat* hat_flipped = kernels_.band_kernel_flipped(static_cast<int>(k)).data();
          const float w = ws.weights[k];
          const SocsKernels::BandSupport lines = adjoint_lines(k);
          if (lines.cols.count == um) {
            // Whole rows: one contiguous span (the only form at M < 4).
            const std::size_t b = r0 * um, e = r1 * um;
            ops.cmul_weighted_accum(buf + b, hat_flipped + b, w, sum + b, e - b);
            return;
          }
          for (std::size_t r = r0; r < r1; ++r) {
            if (!lines.rows.contains(r, um)) continue;
            fft::for_each_range(lines.cols, um, [&](std::size_t a, std::size_t b) {
              const std::size_t i = r * um + a;
              ops.cmul_weighted_accum(buf + i, hat_flipped + i, w, sum + i, b - a);
            });
          }
        });
  }

  // One inverse for every kernel and corner: pad S to the full grid
  // ((N/M)^2 rescales the band transform), average over corners, 2 Re(IFFT).
  // S, and so its Hermitian fold, is zero beyond the kernels' reach: the
  // inverse transforms half-spectrum columns [0, reach] only.
  reshape_like(grad_out, n, pixel_nm(), mask_b);
  const float scale = static_cast<float>(npx) / static_cast<float>(mpx) /
                      static_cast<float>(doses.size());
  const auto cols = static_cast<std::size_t>(kernels_.band_reach()) + 1;
  cfloat* folded = banded ? ws.spec.data() : sum;
  fold_pad_spectrum(sum, um, folded, un, scale, cols);
  fft::irfft_2d(folded, grad_out.data.data(), un, un, cols);

  // Robustness tier: simulate the numeric faults (denormal blow-ups, FFT
  // overflow) that ILILT reports on hard patterns. The ILT watchdog must
  // catch this and terminate Diverged instead of corrupting the descent.
  if (GANOPC_FAILPOINT("litho.gradient_nan"))
    grad_out.data[0] = std::numeric_limits<float>::quiet_NaN();
}

geom::Grid LithoSim::gradient(const geom::Grid& mask_b, const geom::Grid& target,
                              float dose) const {
  geom::Grid grad;
  const float doses[1] = {dose};
  gradient_into(mask_b, target, doses, grad, tls_workspace());
  return grad;
}

LithoSim::PvBand LithoSim::pv_band(const geom::Grid& mask, float dose_delta) const {
  GANOPC_OBS_SPAN("litho.pv_band");
  GANOPC_CHECK(dose_delta > 0.0f && dose_delta < 1.0f);
  const geom::Grid aerial_image = aerial(mask);
  LithoWorkspace& ws = tls_workspace();
  PvBand band;
  band.outer = print(aerial_image, 1.0f + dose_delta);
  band.inner = print(aerial_image, 1.0f - dose_delta);

  // A +/-2% dose error moves contours by only a few nanometers — well below
  // one simulation pixel — so the band area is measured on a band-limited
  // super-sampled intensity field (~2nm effective pixels). The aerial image
  // carries at most twice the pupil bandwidth, far below grid Nyquist, so
  // Fourier zero-padding reconstructs the continuous field exactly. The
  // field and its spectrum live in the workspace (12 MB at 128^2 / 16 nm).
  std::size_t factor = 1;
  while (pixel_nm() / static_cast<std::int32_t>(factor) > 2) factor *= 2;
  const auto n = static_cast<std::size_t>(grid_size());
  const std::size_t fine_px = n * factor * n * factor;
  if (ws.ensure_upsample(n * n, fine_px) && obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();
  fft::fourier_upsample_into(aerial_image.data.data(), n, n, factor, ws.spec.data(),
                             ws.fine_spec.data(), ws.fine.data());
  const float lo = threshold_ / (1.0f + dose_delta);
  const float hi = threshold_ / (1.0f - dose_delta);
  std::int64_t diff_px = 0;
  for (std::size_t i = 0; i < fine_px; ++i) diff_px += (ws.fine[i] >= lo) != (ws.fine[i] >= hi);
  const double fine_pixel = static_cast<double>(pixel_nm()) / static_cast<double>(factor);
  band.area_nm2 =
      static_cast<std::int64_t>(std::llround(diff_px * fine_pixel * fine_pixel));
  return band;
}

double LithoSim::l2_error(const geom::Grid& mask, const geom::Grid& target) const {
  check_geometry(target);
  const geom::Grid z = simulate(mask);
  double err = 0.0;
  for (std::size_t i = 0; i < z.data.size(); ++i) {
    const double d = static_cast<double>(z.data[i]) - target.data[i];
    err += d * d;
  }
  return err;
}

}  // namespace ganopc::litho
