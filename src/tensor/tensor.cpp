#include "tensor/tensor.hpp"

#include <algorithm>

#include "tensor/gemm.hpp"
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace dt::tensor {

std::int64_t numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    DT_CHECK_MSG(d > 0, "non-positive tensor dimension");
    n *= d;
  }
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    os << shape[i];
    if (i + 1 != shape.size()) os << ", ";
  }
  os << ')';
  return os.str();
}

namespace detail {

void Node::ensure_grad() {
  if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
}

bool& grad_mode_flag() {
  thread_local bool enabled = true;
  return enabled;
}

}  // namespace detail

using detail::Node;

namespace {

std::shared_ptr<Node> make_leaf(Shape shape, std::vector<float> data,
                                bool requires_grad) {
  auto n = std::make_shared<Node>();
  DT_CHECK_MSG(static_cast<std::int64_t>(data.size()) == numel(shape),
               "data size does not match shape " << to_string(shape));
  n->shape = std::move(shape);
  n->value = std::move(data);
  n->requires_grad = requires_grad;
  if (requires_grad) n->ensure_grad();
  return n;
}

/// Result node wiring: requires_grad if any parent does (and the
/// thread's autograd mode is on -- see NoGradGuard).
std::shared_ptr<Node> make_op(Shape shape, std::vector<float> value,
                              std::vector<std::shared_ptr<Node>> parents,
                              std::function<void(Node&)> backward) {
  auto n = std::make_shared<Node>();
  n->shape = std::move(shape);
  n->value = std::move(value);
  n->parents = std::move(parents);
  n->requires_grad = false;
  if (detail::grad_mode_flag())
    for (const auto& p : n->parents)
      if (p->requires_grad) n->requires_grad = true;
  if (n->requires_grad) {
    n->backward = std::move(backward);
    n->ensure_grad();
  } else {
    // Constant result (no grad-requiring parent, or NoGradGuard active):
    // drop the parent edges so inference-only forwards build no graph
    // and upstream activations free as soon as they go out of scope.
    n->parents.clear();
  }
  return n;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  DT_CHECK_MSG(a.shape() == b.shape(),
               op << ": shape mismatch " << to_string(a.shape()) << " vs "
                  << to_string(b.shape()));
}

}  // namespace

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  const auto n = static_cast<std::size_t>(tensor::numel(shape));
  return Tensor(make_leaf(std::move(shape), std::vector<float>(n, 0.0f),
                          requires_grad));
}

Tensor Tensor::full(Shape shape, float fill, bool requires_grad) {
  const auto n = static_cast<std::size_t>(tensor::numel(shape));
  return Tensor(make_leaf(std::move(shape), std::vector<float>(n, fill),
                          requires_grad));
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data,
                         bool requires_grad) {
  return Tensor(make_leaf(std::move(shape), std::move(data), requires_grad));
}

Tensor Tensor::randn(Shape shape, float stddev, Xoshiro256ss& rng,
                     bool requires_grad) {
  const auto n = static_cast<std::size_t>(tensor::numel(shape));
  std::vector<float> data(n);
  for (auto& x : data)
    x = stddev * static_cast<float>(normal01(rng));
  return Tensor(make_leaf(std::move(shape), std::move(data), requires_grad));
}

const Shape& Tensor::shape() const {
  DT_CHECK(node_);
  return node_->shape;
}

std::int64_t Tensor::numel() const {
  return static_cast<std::int64_t>(node_->value.size());
}

std::int64_t Tensor::dim(std::size_t axis) const {
  DT_CHECK(axis < shape().size());
  return shape()[axis];
}

std::vector<float>& Tensor::data() {
  DT_CHECK(node_);
  return node_->value;
}

const std::vector<float>& Tensor::data() const {
  DT_CHECK(node_);
  return node_->value;
}

std::vector<float>& Tensor::grad() {
  DT_CHECK(node_);
  node_->ensure_grad();
  return node_->grad;
}

const std::vector<float>& Tensor::grad() const {
  DT_CHECK(node_ && node_->grad.size() == node_->value.size());
  return node_->grad;
}

bool Tensor::requires_grad() const {
  DT_CHECK(node_);
  return node_->requires_grad;
}

float Tensor::item() const {
  DT_CHECK_MSG(numel() == 1, "item() on tensor with " << numel()
                                                      << " elements");
  return node_->value[0];
}

void Tensor::zero_grad() {
  if (node_ && node_->requires_grad) {
    node_->ensure_grad();
    std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }
}

void Tensor::backward() {
  DT_CHECK_MSG(numel() == 1, "backward() requires a scalar loss");
  DT_CHECK_MSG(node_->requires_grad, "backward() on a constant");

  // Topological order via iterative DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, next_child] = stack.back();
    if (next_child < n->parents.size()) {
      Node* child = n->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }

  // Zero intermediate grads, seed the output, propagate in reverse
  // topological order (output first).
  for (Node* n : order) {
    n->ensure_grad();
    std::fill(n->grad.begin(), n->grad.end(), 0.0f);
  }
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward) n->backward(*n);
  }
}

Tensor Tensor::reshape(Shape new_shape) const {
  DT_CHECK(node_);
  DT_CHECK_MSG(tensor::numel(new_shape) == numel(),
               "reshape " << to_string(shape()) << " -> "
                          << to_string(new_shape) << " changes numel");
  auto parent = node_;
  auto out = make_op(std::move(new_shape), node_->value, {parent},
                     [](Node& self) {
                       Node& p = *self.parents[0];
                       p.ensure_grad();
                       for (std::size_t i = 0; i < p.grad.size(); ++i)
                         p.grad[i] += self.grad[i];
                     });
  return Tensor(out);
}

// ---- op helpers ----

namespace {

template <class Fwd, class Bwd>
Tensor unary_op(const Tensor& a, Fwd fwd, Bwd dfdx) {
  const auto& av = a.node()->value;
  std::vector<float> out(av.size());
  for (std::size_t i = 0; i < av.size(); ++i) out[i] = fwd(av[i]);
  auto parent = a.node();
  // Capture the output value for backward rules expressed in terms of y.
  auto node = make_op(
      a.shape(), std::move(out), {parent},
      [dfdx](Node& self) {
        Node& p = *self.parents[0];
        p.ensure_grad();
        for (std::size_t i = 0; i < p.grad.size(); ++i)
          p.grad[i] += self.grad[i] * dfdx(p.value[i], self.value[i]);
      });
  return Tensor(node);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(av.size());
  for (std::size_t i = 0; i < av.size(); ++i) out[i] = av[i] + bv[i];
  auto node = make_op(a.shape(), std::move(out), {a.node(), b.node()},
                      [](Node& self) {
                        for (const auto& parent : self.parents) {
                          Node& p = *parent;
                          if (!p.requires_grad) continue;
                          p.ensure_grad();
                          for (std::size_t i = 0; i < p.grad.size(); ++i)
                            p.grad[i] += self.grad[i];
                        }
                      });
  return Tensor(node);
}

Tensor add_rowvec(const Tensor& a, const Tensor& b) {
  DT_CHECK_MSG(a.shape().size() == 2 && b.shape().size() == 1 &&
                   a.shape()[1] == b.shape()[0],
               "add_rowvec: incompatible shapes " << to_string(a.shape())
                                                  << " and "
                                                  << to_string(b.shape()));
  const auto rows = static_cast<std::size_t>(a.shape()[0]);
  const auto cols = static_cast<std::size_t>(a.shape()[1]);
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(av.size());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out[r * cols + c] = av[r * cols + c] + bv[c];
  auto node = make_op(
      a.shape(), std::move(out), {a.node(), b.node()},
      [rows, cols](Node& self) {
        Node& pa = *self.parents[0];
        Node& pb = *self.parents[1];
        if (pa.requires_grad) {
          pa.ensure_grad();
          for (std::size_t i = 0; i < rows * cols; ++i)
            pa.grad[i] += self.grad[i];
        }
        if (pb.requires_grad) {
          pb.ensure_grad();
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
              pb.grad[c] += self.grad[r * cols + c];
        }
      });
  return Tensor(node);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(av.size());
  for (std::size_t i = 0; i < av.size(); ++i) out[i] = av[i] - bv[i];
  auto node = make_op(a.shape(), std::move(out), {a.node(), b.node()},
                      [](Node& self) {
                        Node& pa = *self.parents[0];
                        Node& pb = *self.parents[1];
                        if (pa.requires_grad) {
                          pa.ensure_grad();
                          for (std::size_t i = 0; i < self.grad.size(); ++i)
                            pa.grad[i] += self.grad[i];
                        }
                        if (pb.requires_grad) {
                          pb.ensure_grad();
                          for (std::size_t i = 0; i < self.grad.size(); ++i)
                            pb.grad[i] -= self.grad[i];
                        }
                      });
  return Tensor(node);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(av.size());
  for (std::size_t i = 0; i < av.size(); ++i) out[i] = av[i] * bv[i];
  auto node = make_op(a.shape(), std::move(out), {a.node(), b.node()},
                      [](Node& self) {
                        Node& pa = *self.parents[0];
                        Node& pb = *self.parents[1];
                        if (pa.requires_grad) {
                          pa.ensure_grad();
                          for (std::size_t i = 0; i < self.grad.size(); ++i)
                            pa.grad[i] += self.grad[i] * pb.value[i];
                        }
                        if (pb.requires_grad) {
                          pb.ensure_grad();
                          for (std::size_t i = 0; i < self.grad.size(); ++i)
                            pb.grad[i] += self.grad[i] * pa.value[i];
                        }
                      });
  return Tensor(node);
}

Tensor scale(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return s * x; },
      [s](float, float) { return s; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor exp(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor log(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor tanh(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  DT_CHECK_MSG(a.shape().size() == 2 && b.shape().size() == 2 &&
                   a.shape()[0] == b.shape()[0],
               "concat_cols: incompatible shapes " << to_string(a.shape())
                                                   << " and "
                                                   << to_string(b.shape()));
  const auto rows = static_cast<std::size_t>(a.shape()[0]);
  const auto ca = static_cast<std::size_t>(a.shape()[1]);
  const auto cb = static_cast<std::size_t>(b.shape()[1]);
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(rows * (ca + cb));
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(av.begin() + static_cast<std::ptrdiff_t>(r * ca),
              av.begin() + static_cast<std::ptrdiff_t>((r + 1) * ca),
              out.begin() + static_cast<std::ptrdiff_t>(r * (ca + cb)));
    std::copy(bv.begin() + static_cast<std::ptrdiff_t>(r * cb),
              bv.begin() + static_cast<std::ptrdiff_t>((r + 1) * cb),
              out.begin() + static_cast<std::ptrdiff_t>(r * (ca + cb) + ca));
  }
  auto node = make_op(
      {a.shape()[0], a.shape()[1] + b.shape()[1]}, std::move(out),
      {a.node(), b.node()}, [rows, ca, cb](Node& self) {
        Node& pa = *self.parents[0];
        Node& pb = *self.parents[1];
        if (pa.requires_grad) {
          pa.ensure_grad();
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < ca; ++c)
              pa.grad[r * ca + c] += self.grad[r * (ca + cb) + c];
        }
        if (pb.requires_grad) {
          pb.ensure_grad();
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cb; ++c)
              pb.grad[r * cb + c] += self.grad[r * (ca + cb) + ca + c];
        }
      });
  return Tensor(node);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  DT_CHECK_MSG(a.shape().size() == 2 && b.shape().size() == 2 &&
                   a.shape()[1] == b.shape()[0],
               "matmul: incompatible shapes " << to_string(a.shape())
                                              << " and "
                                              << to_string(b.shape()));
  const auto rows = static_cast<std::size_t>(a.shape()[0]);
  const auto inner = static_cast<std::size_t>(a.shape()[1]);
  const auto cols = static_cast<std::size_t>(b.shape()[1]);
  const auto& av = a.node()->value;
  const auto& bv = b.node()->value;
  std::vector<float> out(rows * cols);
  gemm_nn(rows, inner, cols, av.data(), bv.data(), out.data());
  auto node = make_op(
      {a.shape()[0], b.shape()[1]}, std::move(out), {a.node(), b.node()},
      [rows, inner, cols](Node& self) {
        Node& pa = *self.parents[0];
        Node& pb = *self.parents[1];
        if (pa.requires_grad) {  // dA += dY . B^T
          pa.ensure_grad();
          gemm_nt_acc(rows, inner, cols, self.grad.data(), pb.value.data(),
                      pa.grad.data());
        }
        if (pb.requires_grad) {  // dB += A^T . dY
          pb.ensure_grad();
          gemm_tn_acc(rows, inner, cols, pa.value.data(), self.grad.data(),
                      pb.grad.data());
        }
      });
  return Tensor(node);
}

Tensor sum(const Tensor& a) {
  const auto& av = a.node()->value;
  float acc = 0.0f;
  for (float x : av) acc += x;
  auto node = make_op({1}, {acc}, {a.node()}, [](Node& self) {
    Node& p = *self.parents[0];
    p.ensure_grad();
    for (std::size_t i = 0; i < p.grad.size(); ++i)
      p.grad[i] += self.grad[0];
  });
  return Tensor(node);
}

Tensor cross_entropy_with_logits(const Tensor& logits,
                                 const std::vector<std::int32_t>& labels) {
  DT_CHECK_MSG(logits.shape().size() == 2, "cross_entropy expects 2-D logits");
  const auto rows = static_cast<std::size_t>(logits.shape()[0]);
  const auto cols = static_cast<std::size_t>(logits.shape()[1]);
  DT_CHECK_MSG(labels.size() == rows, "cross_entropy: label count mismatch");
  const auto& lv = logits.node()->value;

  // Cache per-row log-softmax for the backward pass.
  auto log_probs = std::make_shared<std::vector<float>>(lv.size());
  float loss = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = &lv[r * cols];
    float hi = row[0];
    for (std::size_t c = 1; c < cols; ++c) hi = std::max(hi, row[c]);
    float z = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) z += std::exp(row[c] - hi);
    const float log_z = hi + std::log(z);
    for (std::size_t c = 0; c < cols; ++c)
      (*log_probs)[r * cols + c] = row[c] - log_z;
    const auto label = static_cast<std::size_t>(labels[r]);
    DT_CHECK(label < cols);
    loss -= (*log_probs)[r * cols + label];
  }
  loss /= static_cast<float>(rows);

  auto labels_copy = std::make_shared<std::vector<std::int32_t>>(labels);
  auto node = make_op(
      {1}, {loss}, {logits.node()},
      [rows, cols, log_probs, labels_copy](Node& self) {
        Node& p = *self.parents[0];
        p.ensure_grad();
        const float g = self.grad[0] / static_cast<float>(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto label = static_cast<std::size_t>((*labels_copy)[r]);
          for (std::size_t c = 0; c < cols; ++c) {
            const float soft = std::exp((*log_probs)[r * cols + c]);
            p.grad[r * cols + c] +=
                g * (soft - (c == label ? 1.0f : 0.0f));
          }
        }
      });
  return Tensor(node);
}

}  // namespace dt::tensor
