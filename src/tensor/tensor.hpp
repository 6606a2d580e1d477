// Minimal dense-tensor library with tape-based reverse-mode autograd.
//
// This is the repo's substitution for libtorch (see DESIGN.md): just enough
// machinery -- float32 tensors, the elementwise ops, matmul, sum and
// fused softmax/cross-entropy of the VAE loss, Adam -- to train the VAE
// proposal network and evaluate its exact per-site categorical densities
// inside the Monte Carlo acceptance rule.
//
// Semantics: a Tensor is a shared handle to a graph Node holding the value
// buffer, the gradient buffer and the backward closure. Ops build the
// graph eagerly; backward() runs a topological sweep accumulating
// gradients into every node with requires_grad. Graphs are single-use per
// backward (standard tape behaviour); parameters persist across steps
// because optimizers only touch value/grad buffers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dt::tensor {

using Shape = std::vector<std::int64_t>;

[[nodiscard]] std::int64_t numel(const Shape& shape);
[[nodiscard]] std::string to_string(const Shape& shape);

namespace detail {

struct Node {
  Shape shape;
  std::vector<float> value;
  std::vector<float> grad;      // allocated lazily when requires_grad
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Accumulates d(loss)/d(parent) into each parent's grad, given this
  // node's grad. Empty for leaves.
  std::function<void(Node&)> backward;

  void ensure_grad();
};

/// Thread-local autograd mode flag (see NoGradGuard).
[[nodiscard]] bool& grad_mode_flag();

}  // namespace detail

/// RAII guard disabling graph construction on the current thread: ops
/// executed under it produce constant tensors (no backward closures, no
/// gradient buffers, requires_grad == false). Inference-only paths such
/// as Vae::decode_probs use it so the Monte Carlo hot loop never pays
/// tape-building overhead. Leaf constructors are unaffected.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(detail::grad_mode_flag()) {
    detail::grad_mode_flag() = false;
  }
  ~NoGradGuard() { detail::grad_mode_flag() = prev_; }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

class Tensor {
 public:
  Tensor() = default;

  /// Uninitialised (zero) tensor of the given shape.
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float fill, bool requires_grad = false);
  static Tensor from_data(Shape shape, std::vector<float> data,
                          bool requires_grad = false);
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor randn(Shape shape, float stddev, Xoshiro256ss& rng,
                      bool requires_grad = false);

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Shape& shape() const;
  [[nodiscard]] std::int64_t numel() const;
  [[nodiscard]] std::int64_t dim(std::size_t axis) const;

  [[nodiscard]] std::vector<float>& data();
  [[nodiscard]] const std::vector<float>& data() const;
  [[nodiscard]] std::vector<float>& grad();
  [[nodiscard]] const std::vector<float>& grad() const;
  [[nodiscard]] bool requires_grad() const;

  /// Scalar value of a 1-element tensor.
  [[nodiscard]] float item() const;

  /// Zero the gradient buffer (no-op when !requires_grad).
  void zero_grad();

  /// Reverse-mode sweep from this (scalar) tensor; seeds d(this)=1.
  /// Gradients of every node reachable from this loss are overwritten
  /// (not accumulated across backward() calls) -- one backward per step.
  void backward();

  /// Same storage, new shape (numel must match). Gradients flow through.
  [[nodiscard]] Tensor reshape(Shape new_shape) const;

  // Internal: used by ops.
  [[nodiscard]] const std::shared_ptr<detail::Node>& node() const {
    return node_;
  }
  explicit Tensor(std::shared_ptr<detail::Node> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<detail::Node> node_;
};

// ---- elementwise ops (same-shape unless noted) ----
Tensor add(const Tensor& a, const Tensor& b);
/// Row-broadcast: a is (R, C), b is (C); adds b to every row.
Tensor add_rowvec(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor square(const Tensor& a);

/// Column-wise concatenation of two 2-D tensors with equal row counts:
/// (R, Ca) ++ (R, Cb) -> (R, Ca+Cb). Gradients split back to the inputs.
Tensor concat_cols(const Tensor& a, const Tensor& b);

// ---- linear algebra ----
/// (R, K) x (K, C) -> (R, C).
Tensor matmul(const Tensor& a, const Tensor& b);

// ---- reductions ----
Tensor sum(const Tensor& a);

// ---- NN-specific fused ops ----
/// Mean cross-entropy of 2-D logits (R, C) against integer labels (size R).
/// Fused softmax backward (prob - onehot)/R.
Tensor cross_entropy_with_logits(const Tensor& logits,
                                 const std::vector<std::int32_t>& labels);

// operator sugar
inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }

}  // namespace dt::tensor
