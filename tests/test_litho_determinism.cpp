// Determinism of the parallel lithography engine across thread counts.
//
// The SOCS forward and adjoint loops parallelize over kernels and pixel
// blocks, but every floating-point reduction runs in a fixed order (ascending
// kernel index per pixel, serial dose corners), so the pool size must not
// change a single bit of any result. This tier pins that contract: aerial,
// gradient (single- and multi-dose), a full ILT iteration and a simulate
// batch are computed at 1, 2 and hardware_concurrency threads (plus an
// oversubscribed pool) and compared bit-for-bit, on the full grid and on the
// band-grid SOCS path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "ilt/ilt.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::litho {
namespace {

void expect_identical(const geom::Grid& a, const geom::Grid& b, const char* what,
                      std::size_t threads) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what << " @ " << threads << " threads";
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(), a.data.size() * sizeof(float)))
      << what << " differs at " << threads << " threads";
}

struct Snapshot {
  geom::Grid aerial;
  geom::Grid grad_single;
  geom::Grid grad_multi;
  geom::Grid ilt_mask;
  std::vector<geom::Grid> batch;
};

Snapshot run_engine(const LithoSim& sim, const geom::Grid& target) {
  Snapshot s;
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.2f + 0.6f * v;

  s.aerial = sim.aerial(mask);
  s.grad_single = sim.gradient(mask, target);

  LithoWorkspace ws;
  const std::vector<float> doses = {0.95f, 1.0f, 1.05f};
  sim.gradient_into(mask, target, doses, s.grad_multi, ws);

  ilt::IltConfig cfg;
  cfg.max_iterations = 1;
  cfg.check_every = 1;
  cfg.patience = 1;
  s.ilt_mask = ilt::IltEngine(sim, cfg).optimize(target).mask_relaxed;

  geom::Grid shifted(target.rows, target.cols, target.pixel_nm);
  for (std::int32_t r = 2; r < target.rows; ++r)
    for (std::int32_t c = 0; c < target.cols; ++c)
      shifted.at(r, c) = target.at(r - 2, c);
  const std::vector<geom::Grid> masks = {target, mask, shifted};
  s.batch = sim.simulate_batch(masks);
  return s;
}

void expect_bit_identical_at_every_thread_count(const LithoSim& sim,
                                                const geom::Grid& target) {
  ThreadPool::reset(1);
  const Snapshot base = run_engine(sim, target);

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts = {1, 2, 3, 4, hw, hw + 3};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  for (const std::size_t t : counts) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const Snapshot s = run_engine(sim, target);
    expect_identical(s.aerial, base.aerial, "aerial", t);
    expect_identical(s.grad_single, base.grad_single, "gradient", t);
    expect_identical(s.grad_multi, base.grad_multi, "multi-dose gradient", t);
    expect_identical(s.ilt_mask, base.ilt_mask, "ILT iteration", t);
    ASSERT_EQ(s.batch.size(), base.batch.size());
    for (std::size_t i = 0; i < s.batch.size(); ++i)
      expect_identical(s.batch[i], base.batch[i], "batch print", t);
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, BitIdenticalAtEveryThreadCount) {
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 8; r < 24; ++r)
    for (std::int32_t c = 12; c < 20; ++c) target.at(r, c) = 1.0f;
  expect_bit_identical_at_every_thread_count(sim, target);
}

TEST(LithoDeterminism, BandGridBitIdenticalAtEveryThreadCount) {
  // 64^2 at 16 nm runs SOCS on the 32^2 band grid: the crop, low-pass,
  // upsample and padded-inverse steps are pinned like the full-grid path.
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 64, 16);
  ASSERT_EQ(sim.kernels().band_grid(), 32);
  geom::Grid target(64, 64, 16);
  for (std::int32_t r = 16; r < 48; ++r)
    for (std::int32_t c = 24; c < 40; ++c) target.at(r, c) = 1.0f;
  expect_bit_identical_at_every_thread_count(sim, target);
}

TEST(LithoDeterminism, IltSolveBitIdenticalAcrossOddThreadCounts) {
  // Regression for the cross-thread divergence ROADMAP tracked: before chunk
  // boundaries were quantum-aligned (common/parallel.hpp), the AVX2 kernels'
  // vector-body/scalar-tail grouping shifted with the partition, so a
  // multi-iteration ILT solve diverged at N=3 (1024 px / 3 workers puts chunk
  // starts off the SIMD group width) while N=1 and N=4 agreed. A single
  // iteration can mask the bug — ULP-level differences need iterations to
  // amplify — so this runs a real solve and pins 1/3/4 workers bit-for-bit.
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 6; r < 26; ++r)
    for (std::int32_t c = 10; c < 22; ++c) target.at(r, c) = 1.0f;
  for (std::int32_t r = 14; r < 18; ++r)
    for (std::int32_t c = 10; c < 16; ++c) target.at(r, c) = 0.0f;

  ilt::IltConfig cfg;
  cfg.max_iterations = 24;
  cfg.check_every = 4;

  ThreadPool::reset(1);
  const ilt::IltResult base = ilt::IltEngine(sim, cfg).optimize(target);

  for (const std::size_t t : {std::size_t{3}, std::size_t{4}}) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const ilt::IltResult got = ilt::IltEngine(sim, cfg).optimize(target);
    EXPECT_EQ(got.iterations, base.iterations) << t << " threads";
    expect_identical(got.mask, base.mask, "ILT binary mask", t);
    expect_identical(got.mask_relaxed, base.mask_relaxed, "ILT relaxed mask", t);
    ASSERT_EQ(got.l2_history.size(), base.l2_history.size()) << t << " threads";
    for (std::size_t i = 0; i < got.l2_history.size(); ++i)
      EXPECT_EQ(got.l2_history[i], base.l2_history[i])
          << "L2 history entry " << i << " at " << t << " threads";
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, RepeatedCallsOnWarmWorkspaceAreStable) {
  // Buffer reuse must not leak state between calls: interleaving different
  // masks through one thread's workspace reproduces the cold-workspace
  // results. A fresh std::thread starts with an empty thread-local workspace.
  OpticsConfig optics;
  optics.num_kernels = 8;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid a(32, 32, 32), b(32, 32, 32);
  for (std::int32_t r = 4; r < 28; ++r)
    for (std::int32_t c = 14; c < 18; ++c) a.at(r, c) = 1.0f;
  for (std::int32_t r = 12; r < 20; ++r)
    for (std::int32_t c = 4; c < 28; ++c) b.at(r, c) = 1.0f;

  const auto cold = [&](const geom::Grid& mask) {
    geom::Grid out;
    std::thread([&] { out = sim.aerial(mask); }).join();
    return out;
  };
  const geom::Grid ref_a = cold(a), ref_b = cold(b);
  (void)sim.aerial(b);  // warm this thread's workspace on the other mask first
  expect_identical(sim.aerial(a), ref_a, "warm aerial(a)", ThreadPool::instance().size());
  expect_identical(sim.aerial(b), ref_b, "warm aerial(b)", ThreadPool::instance().size());
  expect_identical(sim.aerial(a), ref_a, "warm aerial(a) again",
                   ThreadPool::instance().size());
}

}  // namespace
}  // namespace ganopc::litho
