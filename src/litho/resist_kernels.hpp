// Dispatched pixel pass of the Eq. (14) gradient: dE/dI through the relaxed
// resist (DESIGN.md §12).
//
// Arms: scalar (resist_kernels.cpp, the conformance reference, uses std::exp)
// and AVX2+FMA (resist_kernels_avx2.cpp, the polynomial sigmoid of
// common/simd_math_avx2.hpp, as in ilt_kernels' update_sigmoid). Both arms are
// deterministic and purely element-wise: element i depends on element i alone,
// and the vector body groups elements from the start of the range.
#pragma once

#include <cstddef>

#include "common/cpu.hpp"

namespace ganopc::litho {

/// x[i] = 2 (z_i - target[i]) * alpha * dose * z_i (1 - z_i) with
/// z_i = sigmoid(alpha (dose * intensity[i] - threshold)): dE/dI of
/// E = ||Z - Z_t||^2 at one dose corner.
using ResistGradFn = void (*)(const float* intensity, const float* target, float alpha,
                              float dose, float threshold, float* x, std::size_t n);

void resist_grad_scalar(const float* intensity, const float* target, float alpha,
                        float dose, float threshold, float* x, std::size_t n);
/// The AVX2 arm (forwards to scalar on non-x86 builds).
void resist_grad_avx2(const float* intensity, const float* target, float alpha,
                      float dose, float threshold, float* x, std::size_t n);

/// The arm for an explicit level — the conformance tier's entry point.
ResistGradFn resist_grad_for(SimdLevel level);

/// The arm for the active process-wide level.
inline ResistGradFn resist_grad() { return resist_grad_for(simd_level()); }

}  // namespace ganopc::litho
