#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "litho/optics.hpp"

namespace ganopc::litho {
namespace {

TEST(Optics, DefaultConfigValid) {
  OpticsConfig cfg;
  EXPECT_TRUE(cfg.valid());
  EXPECT_NEAR(cfg.cutoff(), 1.35 / 193.0, 1e-9);
}

TEST(Optics, InvalidConfigs) {
  OpticsConfig cfg;
  cfg.sigma_outer = 0.4;  // below inner
  EXPECT_FALSE(cfg.valid());
  cfg = OpticsConfig{};
  cfg.sigma_outer = 1.2;  // outside pupil convention
  EXPECT_FALSE(cfg.valid());
  cfg = OpticsConfig{};
  cfg.na = 0;
  EXPECT_FALSE(cfg.valid());
}

class SourceSampling : public ::testing::TestWithParam<int> {};

TEST_P(SourceSampling, CountAndWeights) {
  OpticsConfig cfg;
  const int count = GetParam();
  const auto pts = sample_annular_source(cfg, count);
  ASSERT_EQ(static_cast<int>(pts.size()), count);
  double wsum = 0.0;
  for (const auto& p : pts) wsum += p.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST_P(SourceSampling, PointsInsideAnnulus) {
  OpticsConfig cfg;
  const auto pts = sample_annular_source(cfg, GetParam());
  const double cutoff = cfg.cutoff();
  for (const auto& p : pts) {
    const double sigma = std::hypot(p.fx, p.fy) / cutoff;
    EXPECT_GE(sigma, cfg.sigma_inner - 1e-9);
    EXPECT_LE(sigma, cfg.sigma_outer + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, SourceSampling, ::testing::Values(4, 8, 12, 24, 48));

TEST(Optics, PaperKernelCountIs24) {
  OpticsConfig cfg;
  EXPECT_EQ(cfg.num_kernels, 24);
  const auto pts = sample_annular_source(cfg, cfg.num_kernels);
  EXPECT_EQ(pts.size(), 24u);
}

TEST(Optics, SourceApproxCentroidAtOrigin) {
  // Ring sampling keeps the sampled source balanced (centroid ~ 0), like the
  // inversion-symmetric physical annulus; the odd rings themselves hold no
  // antipodal pairs (optics.hpp).
  OpticsConfig cfg;
  const auto pts = sample_annular_source(cfg, 24);
  double cx = 0, cy = 0;
  for (const auto& p : pts) {
    cx += p.fx * p.weight;
    cy += p.fy * p.weight;
  }
  EXPECT_NEAR(cx / cfg.cutoff(), 0.0, 0.02);
  EXPECT_NEAR(cy / cfg.cutoff(), 0.0, 0.02);
}

TEST(Optics, RejectsInvalid) {
  OpticsConfig bad;
  bad.na = -1;
  EXPECT_THROW(sample_annular_source(bad, 8), Error);
  OpticsConfig good;
  EXPECT_THROW(sample_annular_source(good, 0), Error);
}

}  // namespace
}  // namespace ganopc::litho
