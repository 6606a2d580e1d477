#include "tensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dt::tensor {
namespace {

/// Minimise sum((x - target)^2) and return the final x.
template <class MakeOpt>
std::vector<float> minimize_quadratic(const MakeOpt& make_opt, int steps) {
  auto x = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f}, true);
  const auto target = Tensor::from_data({3}, {1.0f, 2.0f, -3.0f});
  auto opt = make_opt(std::vector<Tensor>{x});
  for (int i = 0; i < steps; ++i) {
    auto loss = sum(square(sub(x, target)));
    loss.backward();
    opt->step();
  }
  return x.data();
}

TEST(Adam, ConvergesOnQuadratic) {
  const auto x = minimize_quadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Adam>(std::move(p), 0.2f);
      },
      400);
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
  EXPECT_NEAR(x[1], 2.0f, 1e-2);
  EXPECT_NEAR(x[2], -3.0f, 1e-2);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  auto x = Tensor::from_data({1}, {10.0f}, true);
  Adam opt({x}, 0.5f);
  auto loss = sum(square(x));
  loss.backward();
  opt.step();
  EXPECT_NEAR(x.data()[0], 10.0f - 0.5f, 1e-4);
}

TEST(Optimizer, ZeroGradClears) {
  auto x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  Adam opt({x}, 0.1f);
  auto loss = sum(square(x));
  loss.backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  opt.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0f);
  EXPECT_EQ(x.grad()[1], 0.0f);
}

TEST(Optimizer, RejectsConstantParameters) {
  auto x = Tensor::from_data({2}, {1.0f, 2.0f});  // no grad
  EXPECT_THROW((void)Adam({x}, 0.1f), dt::Error);
}

TEST(Adam, DeterministicAcrossInstances) {
  auto run = [] {
    auto x = Tensor::from_data({2}, {3.0f, -1.0f}, true);
    Adam opt({x}, 0.1f);
    for (int i = 0; i < 50; ++i) {
      auto loss = sum(square(x));
      loss.backward();
      opt.step();
    }
    return x.data();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dt::tensor
