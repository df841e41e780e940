#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "fft/fft.hpp"

namespace ganopc::fft {
namespace {

TEST(FftUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(100));
}

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Fft1d, RejectsNonPow2) {
  std::vector<cfloat> data(3);
  EXPECT_THROW(fft_1d(data, false), Error);
}

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<cfloat> data(8, {0, 0});
  data[0] = {1, 0};
  fft_1d(data, false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft1d, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  std::vector<cfloat> data(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * M_PI * k * static_cast<double>(i) / static_cast<double>(n);
    data[i] = {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
  }
  fft_1d(data, false);
  for (std::size_t i = 0; i < n; ++i) {
    const float mag = std::abs(data[i]);
    if (i == static_cast<std::size_t>(k)) {
      EXPECT_NEAR(mag, static_cast<float>(n), 1e-3f);
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3f);
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput1d) {
  const std::size_t n = GetParam();
  Prng rng(n);
  std::vector<cfloat> data(n), orig(n);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  orig = data;
  fft_1d(data, false);
  fft_1d(data, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4f);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 16, 64, 256, 1024));

TEST(Fft1d, ParsevalHolds) {
  const std::size_t n = 128;
  Prng rng(99);
  std::vector<cfloat> data(n);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  double time_energy = 0.0;
  for (const auto& v : data) time_energy += std::norm(v);
  fft_1d(data, false);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-3);
}

TEST(Fft2d, RoundTripRandom) {
  const std::size_t h = 16, w = 32;
  Prng rng(5);
  std::vector<cfloat> data(h * w), orig;
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  orig = data;
  fft_2d(data, h, w, false);
  fft_2d(data, h, w, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4f);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4f);
  }
}

TEST(Fft2d, MatchesDirectDft) {
  const std::size_t h = 8, w = 8;
  Prng rng(77);
  std::vector<cfloat> data(h * w);
  for (auto& v : data)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  // Direct O(n^2) DFT reference.
  std::vector<std::complex<double>> ref(h * w, {0, 0});
  for (std::size_t kr = 0; kr < h; ++kr)
    for (std::size_t kc = 0; kc < w; ++kc)
      for (std::size_t r = 0; r < h; ++r)
        for (std::size_t c = 0; c < w; ++c) {
          const double ph = -2.0 * M_PI *
                            (static_cast<double>(kr * r) / h + static_cast<double>(kc * c) / w);
          const std::complex<double> tw(std::cos(ph), std::sin(ph));
          ref[kr * w + kc] += std::complex<double>(data[r * w + c]) * tw;
        }
  fft_2d(data, h, w, false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), ref[i].real(), 1e-3);
    EXPECT_NEAR(data[i].imag(), ref[i].imag(), 1e-3);
  }
}

TEST(Fft2d, FftShiftMovesDcToCenter) {
  const std::size_t n = 8;
  std::vector<cfloat> data(n * n, {0, 0});
  data[0] = {1, 0};
  fftshift_2d(data, n, n);
  EXPECT_NEAR(data[(n / 2) * n + n / 2].real(), 1.0f, 1e-6f);
  EXPECT_NEAR(data[0].real(), 0.0f, 1e-6f);
}

TEST(Fft2d, FftShiftIsInvolution) {
  const std::size_t n = 16;
  Prng rng(31);
  std::vector<cfloat> data(n * n), orig;
  for (auto& v : data) v = {static_cast<float>(rng.uniform(-1, 1)), 0.0f};
  orig = data;
  fftshift_2d(data, n, n);
  fftshift_2d(data, n, n);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i].real(), orig[i].real());
}

// fourier_upsample_into with freshly allocated scratch.
std::vector<float> upsample(const std::vector<float>& in, std::size_t height,
                            std::size_t width, std::size_t factor) {
  std::vector<float> out(in.size() * factor * factor);
  std::vector<cfloat> small_spec(in.size()), big_spec(out.size());
  fourier_upsample_into(in.data(), height, width, factor, small_spec.data(), big_spec.data(),
                        out.data());
  return out;
}

TEST(FourierUpsample, ReproducesSamplesOfBandlimitedSignal) {
  // A low-frequency 2-D cosine is exactly reconstructible: the upsampled
  // grid must match the analytic signal at every fine sample.
  const std::size_t n = 16, factor = 4;
  std::vector<float> coarse(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      coarse[r * n + c] = static_cast<float>(
          std::cos(2.0 * M_PI * 2.0 * static_cast<double>(r) / n) *
          std::sin(2.0 * M_PI * 3.0 * static_cast<double>(c) / n));
  const auto fine = upsample(coarse, n, n, factor);
  const std::size_t on = n * factor;
  for (std::size_t r = 0; r < on; ++r)
    for (std::size_t c = 0; c < on; ++c) {
      const double expect = std::cos(2.0 * M_PI * 2.0 * static_cast<double>(r) / on) *
                            std::sin(2.0 * M_PI * 3.0 * static_cast<double>(c) / on);
      EXPECT_NEAR(fine[r * on + c], expect, 1e-3) << r << "," << c;
    }
}

TEST(FourierUpsample, FactorOneIsIdentity) {
  std::vector<float> in{1, 2, 3, 4};
  EXPECT_EQ(upsample(in, 2, 2, 1), in);
}

TEST(FourierUpsample, SingleRowOrColumnStaysInPlace) {
  // A 1-point axis has no Nyquist line to split: a constant row or column
  // upsamples to the same constant, and nothing is written past the
  // caller's buffers.
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{1, 8}, {8, 1}}) {
    const std::size_t factor = 2, big = h * w * factor * factor;
    std::vector<float> in(h * w, 1.0f), out(big);
    std::vector<cfloat> small_spec(h * w), big_spec(big + 4, cfloat(7.0f, 7.0f));
    fourier_upsample_into(in.data(), h, w, factor, small_spec.data(), big_spec.data(),
                          out.data());
    for (std::size_t i = 0; i < big; ++i) EXPECT_NEAR(out[i], 1.0f, 1e-6f) << h << "x" << w;
    for (std::size_t i = big; i < big + 4; ++i)
      EXPECT_EQ(big_spec[i], cfloat(7.0f, 7.0f)) << h << "x" << w << " wrote past the end";
  }
}

TEST(FourierUpsample, PreservesMean) {
  Prng rng(8);
  const std::size_t n = 8;
  std::vector<float> in(n * n);
  for (auto& v : in) v = static_cast<float>(rng.uniform(0, 1));
  const auto out = upsample(in, n, n, 2);
  double m_in = 0, m_out = 0;
  for (float v : in) m_in += v;
  for (float v : out) m_out += v;
  EXPECT_NEAR(m_in / in.size(), m_out / out.size(), 1e-4);
}

// ---------------------------------------------------------------------------
// Line-pruned transforms: each computed line is bit-identical to the full
// transform's.
// ---------------------------------------------------------------------------

std::vector<cfloat> random_spectrum(Prng& rng, std::size_t n) {
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  return v;
}

TEST(Lines, MirroredWidenedAndRanges) {
  const Lines run{60, 9};  // 60..63, 0..4 on a 64-line axis
  EXPECT_TRUE(run.contains(63, 64));
  EXPECT_TRUE(run.contains(4, 64));
  EXPECT_FALSE(run.contains(5, 64));
  EXPECT_FALSE(run.contains(59, 64));
  const Lines m = run.mirrored(64);  // -63..-60 = 1..4, -4..0 = 60..63, 0
  EXPECT_EQ(m.begin, 60u);
  EXPECT_EQ(m.count, 9u);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(m.contains(i, 64), run.contains((64 - i) % 64, 64)) << i;
  const Lines w = Lines{5, 6}.widened(4, 64);  // 5..10 -> 4..11
  EXPECT_EQ(w.begin, 4u);
  EXPECT_EQ(w.count, 8u);
  EXPECT_EQ((Lines{1, 62}.widened(4, 64).count), 64u);
  EXPECT_EQ(Lines{}.mirrored(64).count, 0u);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for_each_range(run, 64, [&](std::size_t a, std::size_t b) { ranges.emplace_back(a, b); });
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{60}, std::size_t{64}));
  EXPECT_EQ(ranges[1], std::make_pair(std::size_t{0}, std::size_t{5}));
}

TEST(Fft2dPruned, ZeroRowsSkippedAndUnreadColumnsMatchFullTransform) {
  Prng rng(21);
  const std::size_t h = 64, w = 32;
  for (const bool inverse : {false, true}) {
    for (const Lines rows : {Lines{0, 64}, Lines{50, 29}, Lines{3, 1}}) {
      for (const Lines cols : {Lines{0, 32}, Lines{28, 12}, Lines{8, 5}}) {
        std::vector<cfloat> full = random_spectrum(rng, h * w);
        for (std::size_t r = 0; r < h; ++r)
          if (!rows.contains(r, h))
            std::fill(full.begin() + r * w, full.begin() + (r + 1) * w, cfloat{});
        std::vector<cfloat> pruned = full;
        fft_2d(full.data(), h, w, inverse);
        fft_2d(pruned.data(), h, w, inverse, rows, cols);
        for (std::size_t r = 0; r < h; ++r)
          for (std::size_t c = 0; c < w; ++c) {
            if (!cols.contains(c, w)) continue;
            ASSERT_EQ(0, std::memcmp(&full[r * w + c], &pruned[r * w + c], sizeof(cfloat)))
                << "inverse=" << inverse << " rows=" << rows.begin << "+" << rows.count
                << " cols=" << cols.begin << "+" << cols.count << " at " << r << "," << c;
          }
      }
    }
  }
}

TEST(RealFftPruned, ReadColumnsAndMirrorsMatchFullTransform) {
  Prng rng(22);
  const std::size_t n = 128;
  std::vector<float> x(n * n);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<cfloat> full(n * n), pruned(n * n);
  rfft_2d(x.data(), full.data(), n, n);
  const std::size_t cols = 32;  // a 64-point band window's crop
  rfft_2d(x.data(), pruned.data(), n, n, cols);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      if (c >= cols && c < n - cols + 1) continue;  // unread
      ASSERT_EQ(0, std::memcmp(&full[r * n + c], &pruned[r * n + c], sizeof(cfloat)))
          << r << "," << c;
    }
}

TEST(RealFftPruned, InverseSkippingZeroColumnsMatchesFullTransform) {
  Prng rng(23);
  // (n, cols): the fold-pad inverse at 128 / reach 15, the 64 -> 128 and
  // 128 -> 1024 upsample inverses.
  for (const auto& [n, cols] : {std::pair<std::size_t, std::size_t>{128, 16},
                                {128, 33}, {1024, 65}}) {
    std::vector<cfloat> spec = random_spectrum(rng, n * n);
    for (std::size_t r = 0; r < n; ++r)
      std::fill(spec.begin() + r * n + cols, spec.begin() + r * n + n / 2 + 1, cfloat{});
    std::vector<cfloat> full_spec = spec;
    std::vector<float> full(n * n), pruned(n * n);
    irfft_2d(full_spec.data(), full.data(), n, n);
    irfft_2d(spec.data(), pruned.data(), n, n, cols);
    EXPECT_EQ(0, std::memcmp(full.data(), pruned.data(), n * n * sizeof(float)))
        << "n=" << n << " cols=" << cols;
  }
}

TEST(FourierUpsample, PrunedInverseMatchesFullPaddedSpectrum) {
  // The reference pads into a fully zeroed spectrum, writes every image
  // (including the ones only the Hermitian upper half holds) and inverts
  // all W/2 + 1 columns.
  Prng rng(24);
  for (const auto& [n, factor] :
       {std::pair<std::size_t, std::size_t>{64, 2}, {128, 8}}) {
    std::vector<float> in(n * n);
    for (auto& v : in) v = static_cast<float>(rng.uniform(0, 1));
    const std::size_t on = n * factor, hn = n / 2;
    std::vector<cfloat> small(n * n), big(on * on);
    rfft_2d(in.data(), small.data(), n, n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t ro = r <= hn ? r : on - (n - r);
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t co = c <= hn ? c : on - (n - c);
        cfloat v = small[r * n + c];
        if (r == hn) v *= 0.5f;
        if (c == hn) v *= 0.5f;
        big[ro * on + co] += v;
        if (r == hn) big[(on - hn) * on + co] += v;
        if (c == hn) big[ro * on + (on - hn)] += v;
        if (r == hn && c == hn) big[(on - hn) * on + (on - hn)] += v;
      }
    }
    std::vector<float> want(on * on);
    irfft_2d(big.data(), want.data(), on, on);
    for (auto& v : want) v *= static_cast<float>(factor * factor);
    const std::vector<float> got = upsample(in, n, n, factor);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
        << n << " x" << factor;
  }
}

}  // namespace
}  // namespace ganopc::fft
