// Adam, the optimizer the VAE trains with, over a flat parameter list.
//
// Each parameter is a value buffer and the gradient buffer the model's
// backward pass writes; both belong to the model. step() reads every
// gradient and updates its value in place, so the next forward pass sees
// the new weights.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace dt::tensor {

/// One trainable buffer and its gradient, of equal size.
struct Param {
  std::span<float> value;
  std::span<float> grad;
};

/// Adam (Kingma & Ba) with bias correction and their defaults
/// beta1 = 0.9, beta2 = 0.999, eps = 1e-8.
class Adam {
 public:
  Adam(std::vector<Param> params, float lr);
  void step();

  /// Checkpoint the full optimizer state (step count + first/second
  /// moments); load_state into an Adam over the same parameter shapes
  /// resumes bit-exactly. The learning rate is caller-managed.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::vector<Param> params_;
  float lr_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace dt::tensor
