// Neural-network module framework over dt::tensor.
//
// Modules own parameter Tensors (requires_grad) and build the forward
// graph on demand. Only what the VAE proposal network needs is provided:
// Linear, its tanh activation and Sequential composition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dt::nn {

using tensor::Tensor;

class Module {
 public:
  virtual ~Module() = default;
  /// Build the forward graph for a batch `x` of shape (B, in_features).
  virtual Tensor forward(const Tensor& x) = 0;
  /// All trainable parameters (stable order; used by optimizers and
  /// serialization).
  [[nodiscard]] virtual std::vector<Tensor> parameters() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Affine map y = x W + b with Xavier/Glorot initialisation.
class Linear final : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         Xoshiro256ss& rng);

  Tensor forward(const Tensor& x) override;
  [[nodiscard]] std::vector<Tensor> parameters() const override;
  [[nodiscard]] std::string name() const override { return "linear"; }

  [[nodiscard]] std::int64_t in_features() const { return in_; }
  [[nodiscard]] std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_, out_;
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (out)
};

/// Pointwise tanh, the VAE's hidden-layer activation.
class Tanh final : public Module {
 public:
  Tensor forward(const Tensor& x) override { return tensor::tanh(x); }
  [[nodiscard]] std::vector<Tensor> parameters() const override { return {}; }
  [[nodiscard]] std::string name() const override { return "tanh"; }
};

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append a module; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> module);

  Tensor forward(const Tensor& x) override;
  [[nodiscard]] std::vector<Tensor> parameters() const override;
  [[nodiscard]] std::string name() const override { return "sequential"; }

  [[nodiscard]] std::size_t size() const { return modules_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace dt::nn
