// Adam, the optimizer the VAE trains with, over a flat parameter list.
//
// Parameters are Tensors with requires_grad; step() reads each tensor's
// gradient buffer and updates its value buffer in place, so the graph
// built in the next forward pass sees the new weights.
#pragma once

#include <iosfwd>
#include <vector>

#include "tensor/tensor.hpp"

namespace dt::tensor {

/// Adam (Kingma & Ba) with bias correction and their defaults
/// beta1 = 0.9, beta2 = 0.999, eps = 1e-8.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr);
  void step();
  void zero_grad();

  [[nodiscard]] const std::vector<Tensor>& parameters() const {
    return params_;
  }

  /// Checkpoint the full optimizer state (step count + first/second
  /// moments); load_state into an Adam over the same parameter shapes
  /// resumes bit-exactly. The learning rate is caller-managed.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::vector<Tensor> params_;
  float lr_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace dt::tensor
