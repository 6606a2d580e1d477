#include "nn/module.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "tensor/gemm.hpp"

namespace dt::nn {
Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               Xoshiro256ss& rng)
    : in_(in_features), out_(out_features) {
  DT_CHECK(in_features > 0 && out_features > 0);
  const float stddev = std::sqrt(
      2.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::randn({in_, out_}, stddev, rng, /*requires_grad=*/true);
  bias_ = Tensor::zeros({out_}, /*requires_grad=*/true);
}

Tensor Linear::forward(const Tensor& x) {
  if (!tensor::detail::grad_mode_flag()) {
    // Inference (NoGradGuard active, e.g. the proposal decode loop): no
    // tape is built anyway, so fuse matmul + bias into one buffer --
    // pre-fill the output rows with the bias and let the GEMM micro
    // kernels accumulate on top. Saves a full-size temporary and one
    // extra pass over the output per layer.
    DT_CHECK_MSG(x.shape().size() == 2 && x.shape()[1] == in_,
                 "Linear::forward: bad input shape");
    const auto rows = static_cast<std::size_t>(x.shape()[0]);
    const auto cols = static_cast<std::size_t>(out_);
    const auto& bv = bias_.data();
    std::vector<float> out(rows * cols);
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(&out[r * cols], bv.data(), cols * sizeof(float));
    tensor::gemm_nn_acc(rows, static_cast<std::size_t>(in_), cols,
                        x.data().data(), weight_.data().data(), out.data());
    return Tensor::from_data({x.shape()[0], out_}, std::move(out));
  }
  return tensor::add_rowvec(tensor::matmul(x, weight_), bias_);
}

std::vector<Tensor> Linear::parameters() const { return {weight_, bias_}; }

}  // namespace dt::nn
