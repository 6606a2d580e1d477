// The VAE's one layer type over dt::tensor.
//
// Linear owns its parameter Tensors (requires_grad) and builds the
// forward graph on demand; the VAE composes five of them with
// tensor::tanh between its hidden layers.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace dt::nn {

using tensor::Tensor;

/// Affine map y = x W + b with Xavier/Glorot initialisation.
class Linear {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         Xoshiro256ss& rng);

  /// Build the forward graph for a batch `x` of shape (B, in_features).
  Tensor forward(const Tensor& x);
  /// {weight, bias}: the order optimizers and serialization rely on.
  [[nodiscard]] std::vector<Tensor> parameters() const;

 private:
  std::int64_t in_, out_;
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (out)
};

}  // namespace dt::nn
