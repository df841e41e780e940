#include "litho/resist_kernels.hpp"

#include <cmath>

namespace ganopc::litho {

void resist_grad_scalar(const float* intensity, const float* target, float alpha,
                        float dose, float threshold, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float zi = 1.0f / (1.0f + std::exp(-alpha * (intensity[i] * dose - threshold)));
    x[i] = 2.0f * (zi - target[i]) * alpha * dose * zi * (1.0f - zi);
  }
}

ResistGradFn resist_grad_for(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? resist_grad_avx2 : resist_grad_scalar;
}

}  // namespace ganopc::litho
