#include "tensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace dt::tensor {
namespace {

/// Gradient of sum((x - target)^2).
void quadratic_gradient(const std::vector<float>& x,
                        const std::vector<float>& target,
                        std::vector<float>& grad) {
  for (std::size_t i = 0; i < x.size(); ++i)
    grad[i] = 2.0f * (x[i] - target[i]);
}

TEST(Adam, ConvergesOnQuadratic) {
  std::vector<float> x = {5.0f, -4.0f, 2.0f}, grad(3);
  const std::vector<float> target = {1.0f, 2.0f, -3.0f};
  Adam opt({{x, grad}}, 0.2f);
  for (int i = 0; i < 400; ++i) {
    quadratic_gradient(x, target, grad);
    opt.step();
  }
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
  EXPECT_NEAR(x[1], 2.0f, 1e-2);
  EXPECT_NEAR(x[2], -3.0f, 1e-2);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  std::vector<float> x = {10.0f}, grad = {20.0f};
  Adam opt({{x, grad}}, 0.5f);
  opt.step();
  EXPECT_NEAR(x[0], 10.0f - 0.5f, 1e-4);
}

TEST(Optimizer, RejectsConstantParameters) {
  // A parameter without a gradient buffer of its own size cannot train.
  std::vector<float> x = {1.0f, 2.0f}, grad;
  EXPECT_THROW((void)Adam({{x, grad}}, 0.1f), dt::Error);
}

TEST(Adam, DeterministicAcrossInstances) {
  auto run = [] {
    std::vector<float> x = {3.0f, -1.0f}, grad(2);
    const std::vector<float> zero(2, 0.0f);
    Adam opt({{x, grad}}, 0.1f);
    for (int i = 0; i < 50; ++i) {
      quadratic_gradient(x, zero, grad);
      opt.step();
    }
    return x;
  };
  EXPECT_EQ(run(), run());
}

TEST(Adam, LoadStateRejectsCorruptState) {
  std::vector<float> x = {1.0f, 2.0f}, grad = {0.5f, -0.5f};
  Adam opt({{x, grad}}, 0.1f);
  opt.step();
  std::ostringstream saved;
  opt.save_state(saved);
  const std::string bytes = saved.str();

  std::istringstream good(bytes);
  opt.load_state(good);

  std::istringstream garbage("definitely not adam state");
  EXPECT_THROW(opt.load_state(garbage), dt::Error);

  // The step count follows the 8-byte magic; a negative one would make
  // the bias corrections of the next step meaningless.
  std::string negative = bytes;
  const std::int64_t t = -3;
  negative.replace(8, sizeof(t), reinterpret_cast<const char*>(&t),
                   sizeof(t));
  std::istringstream bad_step(negative);
  EXPECT_THROW(opt.load_state(bad_step), dt::Error);
}

}  // namespace
}  // namespace dt::tensor
