// AVX2+FMA arm of the dE/dI pixel pass (compiled with -mavx2 -mfma;
// dispatch contract in resist_kernels.hpp).
#include "litho/resist_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "common/simd_math_avx2.hpp"

namespace ganopc::litho {

void resist_grad_avx2(const float* intensity, const float* target, float alpha,
                      float dose, float threshold, float* x, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  const __m256 dv = _mm256_set1_ps(dose);
  const __m256 tv = _mm256_set1_ps(threshold);
  const __m256 one = _mm256_set1_ps(1.0f);
  // 2 * alpha * dose, the constant factor of every element.
  const __m256 gain = _mm256_set1_ps(2.0f * alpha * dose);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 arg = _mm256_mul_ps(av, _mm256_fmsub_ps(_mm256_loadu_ps(intensity + i), dv, tv));
    const __m256 z = simd::sigmoid256_ps(arg);
    const __m256 err = _mm256_sub_ps(z, _mm256_loadu_ps(target + i));
    const __m256 slope = _mm256_mul_ps(z, _mm256_sub_ps(one, z));
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_mul_ps(gain, err), slope));
  }
  resist_grad_scalar(intensity + i, target + i, alpha, dose, threshold, x + i, n - i);
}

}  // namespace ganopc::litho

#else  // !(__AVX2__ && __FMA__)

namespace ganopc::litho {

void resist_grad_avx2(const float* intensity, const float* target, float alpha,
                      float dose, float threshold, float* x, std::size_t n) {
  resist_grad_scalar(intensity, target, alpha, dose, threshold, x, n);
}

}  // namespace ganopc::litho

#endif
