#include <gtest/gtest.h>

#include <cmath>
#include <complex>
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
  const auto fine = fft::fourier_upsample_2d(coarse, n, n, factor);
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
  EXPECT_EQ(fft::fourier_upsample_2d(in, 2, 2, 1), in);
}

TEST(FourierUpsample, PreservesMean) {
  Prng rng(8);
  const std::size_t n = 8;
  std::vector<float> in(n * n);
  for (auto& v : in) v = static_cast<float>(rng.uniform(0, 1));
  const auto out = fft::fourier_upsample_2d(in, n, n, 2);
  double m_in = 0, m_out = 0;
  for (float v : in) m_in += v;
  for (float v : out) m_out += v;
  EXPECT_NEAR(m_in / in.size(), m_out / out.size(), 1e-4);
}

}  // namespace
}  // namespace ganopc::fft
