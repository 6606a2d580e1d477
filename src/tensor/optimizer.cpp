#include "tensor/optimizer.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace dt::tensor {

namespace {
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;
}  // namespace

Adam::Adam(std::vector<Param> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    DT_CHECK_MSG(p.grad.size() == p.value.size(),
                 "optimizer parameter lacks a gradient of its size");
    m_.emplace_back(p.value.size(), 0.0f);
    v_.emplace_back(p.value.size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const std::span<float> value = params_[k].value;
    const std::span<const float> grad = params_[k].grad;
    auto& m = m_[k];
    auto& v = v_[k];
    for (std::size_t i = 0; i < value.size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * grad[i] * grad[i];
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      value[i] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

namespace {
constexpr std::uint64_t kAdamMagic = 0x44'54'41'44'41'4D'30'31ULL;
}  // namespace

void Adam::save_state(std::ostream& os) const {
  write_pod(os, kAdamMagic);
  write_pod(os, t_);
  write_pod<std::uint64_t>(os, m_.size());
  for (std::size_t k = 0; k < m_.size(); ++k) {
    write_vector(os, m_[k]);
    write_vector(os, v_[k]);
  }
}

void Adam::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint64_t>(is) == kAdamMagic,
               "Adam checkpoint: bad magic");
  const auto t = read_pod<std::int64_t>(is);
  DT_CHECK_MSG(t >= 0, "Adam checkpoint: negative step count " << t);
  const auto n = read_pod<std::uint64_t>(is);
  DT_CHECK_MSG(n == m_.size(), "Adam checkpoint: parameter count mismatch");
  for (std::size_t k = 0; k < m_.size(); ++k) {
    auto m = read_vector<float>(is);
    auto v = read_vector<float>(is);
    DT_CHECK_MSG(m.size() == m_[k].size() && v.size() == v_[k].size(),
                 "Adam checkpoint: moment size mismatch at parameter " << k);
    m_[k] = std::move(m);
    v_[k] = std::move(v);
  }
  t_ = t;
}

}  // namespace dt::tensor
