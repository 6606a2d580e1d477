#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace dt::tensor {
namespace {

TEST(Tensor, ConstructionAndShape) {
  const auto t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);

  const auto f = Tensor::full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW((void)Tensor::from_data({2, 2}, {1.0f, 2.0f}), dt::Error);
  const auto t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.data()[3], 4.0f);
}

TEST(Tensor, RandnMoments) {
  Xoshiro256ss rng(1);
  const auto t = Tensor::randn({100, 100}, 2.0f, rng);
  double sum = 0, sum2 = 0;
  for (float v : t.data()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(t.numel());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 4.0, 0.1);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW((void)Tensor::zeros({2}).item(), dt::Error);
  EXPECT_EQ(Tensor::full({1}, 3.0f).item(), 3.0f);
}

TEST(Ops, ElementwiseForward) {
  const auto a = Tensor::from_data({3}, {1, 2, 3});
  const auto b = Tensor::from_data({3}, {10, 20, 30});
  EXPECT_EQ(add(a, b).data(), (std::vector<float>{11, 22, 33}));
  EXPECT_EQ(sub(b, a).data(), (std::vector<float>{9, 18, 27}));
  EXPECT_EQ(mul(a, b).data(), (std::vector<float>{10, 40, 90}));
  EXPECT_EQ(scale(a, 2.0f).data(), (std::vector<float>{2, 4, 6}));
  EXPECT_EQ(add_scalar(a, 1.0f).data(), (std::vector<float>{2, 3, 4}));
  EXPECT_EQ(square(a).data(), (std::vector<float>{1, 4, 9}));
}

TEST(Ops, ShapeMismatchThrows) {
  const auto a = Tensor::zeros({3});
  const auto b = Tensor::zeros({4});
  EXPECT_THROW((void)add(a, b), dt::Error);
  EXPECT_THROW((void)matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               dt::Error);
}

TEST(Ops, MatmulForward) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Ops, AddRowvecBroadcasts) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Tensor::from_data({3}, {10, 20, 30});
  EXPECT_EQ(add_rowvec(a, b).data(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Ops, ReductionsForward) {
  const auto a = Tensor::from_data({4}, {1, 2, 3, 4});
  EXPECT_EQ(sum(a).item(), 10.0f);
}

TEST(Ops, CrossEntropyForwardValue) {
  // Uniform logits: CE = ln(C).
  const auto logits = Tensor::from_data({2, 4}, std::vector<float>(8, 0.0f));
  const auto loss = cross_entropy_with_logits(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-6);
}

// ---- gradient checks: autograd vs central finite differences ----

using GraphBuilder = std::function<Tensor(Tensor&)>;

void check_gradients(const Shape& shape, std::vector<float> x0,
                     const GraphBuilder& build, float tol = 2e-2f) {
  auto x = Tensor::from_data(shape, x0, /*requires_grad=*/true);
  auto loss = build(x);
  loss.backward();
  const std::vector<float> analytic = x.grad();

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x0.size(); ++i) {
    auto perturbed = x0;
    perturbed[i] += eps;
    auto xp = Tensor::from_data(shape, perturbed, true);
    const float up = build(xp).item();
    perturbed[i] -= 2 * eps;
    auto xm = Tensor::from_data(shape, perturbed, true);
    const float um = build(xm).item();
    const float numeric = (up - um) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0f, std::fabs(numeric)))
        << "component " << i;
  }
}

TEST(Grad, Sum) {
  check_gradients({3}, {1, -2, 3}, [](Tensor& x) { return sum(x); });
}

TEST(Grad, MeanOfSquare) {
  check_gradients({4}, {1, -2, 3, 0.5},
                  [](Tensor& x) { return scale(sum(square(x)), 0.25f); });
}

TEST(Grad, ExpLogChain) {
  check_gradients({3}, {0.5, 1.0, 2.0}, [](Tensor& x) {
    return sum(log(add_scalar(exp(x), 1.0f)));
  });
}

TEST(Grad, Tanh) {
  check_gradients({4}, {-1.5, -0.3, 0.4, 2.0},
                  [](Tensor& x) { return sum(tanh(x)); });
}

TEST(Grad, MulBothSides) {
  const auto c = Tensor::from_data({3}, {2, -1, 0.5});
  check_gradients({3}, {1, 2, 3},
                  [&](Tensor& x) { return sum(mul(x, mul(x, c))); });
}

TEST(Grad, MatmulLeft) {
  Xoshiro256ss rng(2);
  const auto b = Tensor::randn({3, 2}, 1.0f, rng);
  check_gradients({2, 3}, {1, 2, -1, 0.5, 0, 1},
                  [&](Tensor& x) { return sum(matmul(x, b)); });
}

TEST(Grad, MatmulRight) {
  const auto a = Tensor::from_data({2, 3}, {1, -1, 2, 0, 3, 1});
  check_gradients({3, 2}, {1, 2, 3, 4, 5, 6}, [&](Tensor& x) {
    return sum(square(matmul(a, x)));
  });
}

TEST(Grad, AddRowvecBias) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  check_gradients({3}, {0.1f, -0.2f, 0.3f}, [&](Tensor& x) {
    return sum(square(add_rowvec(a, x)));
  });
}

TEST(Grad, CrossEntropy) {
  check_gradients({3, 4}, {1, 2, 0.5, -1, 0, 1, 2, 3, -2, 0.5, 1, 0},
                  [](Tensor& x) {
                    return cross_entropy_with_logits(x, {1, 3, 0});
                  });
}

TEST(Grad, Reshape) {
  check_gradients({2, 3}, {1, 2, 3, 4, 5, 6}, [](Tensor& x) {
    return sum(square(x.reshape({3, 2})));
  });
}

TEST(Grad, SharedSubexpression) {
  // y = x used twice: gradients must accumulate through both paths.
  check_gradients({3}, {1, 2, 3},
                  [](Tensor& x) { return sum(mul(x, x)) + sum(scale(x, 3.0f)); });
}

TEST(Autograd, BackwardRequiresScalar) {
  auto x = Tensor::from_data({2}, {1, 2}, true);
  auto y = square(x);
  EXPECT_THROW(y.backward(), dt::Error);
}

TEST(Autograd, BackwardOnConstantThrows) {
  auto x = Tensor::from_data({1}, {1});
  EXPECT_THROW(x.backward(), dt::Error);
}

TEST(Autograd, ConstantOperandsGetNoGradient) {
  // A constant operand (the one-hot training batch, the reparameterisation
  // noise, the condition vector) gets no gradient buffer and costs no
  // backward GEMM; the parameters' gradients are the same bit for bit as
  // when that operand does take a gradient.
  Xoshiro256ss rng(3);
  const auto xv = Tensor::randn({5, 7}, 1.0f, rng).data();
  const auto wv = Tensor::randn({7, 3}, 1.0f, rng).data();
  const auto cv = Tensor::randn({5, 2}, 1.0f, rng).data();
  auto loss_of = [](const Tensor& x, const Tensor& w, const Tensor& c) {
    return sum(square(concat_cols(mul(matmul(x, w), matmul(x, w)), c)));
  };

  const auto x_const = Tensor::from_data({5, 7}, xv);
  const auto c_const = Tensor::from_data({5, 2}, cv);
  auto w1 = Tensor::from_data({7, 3}, wv, true);
  loss_of(x_const, w1, c_const).backward();

  const auto x_var = Tensor::from_data({5, 7}, xv, true);
  const auto c_var = Tensor::from_data({5, 2}, cv, true);
  auto w2 = Tensor::from_data({7, 3}, wv, true);
  loss_of(x_var, w2, c_var).backward();

  EXPECT_TRUE(x_const.node()->grad.empty());
  EXPECT_TRUE(c_const.node()->grad.empty());
  EXPECT_FALSE(x_var.node()->grad.empty());
  EXPECT_EQ(w1.grad(), w2.grad());
}

TEST(Autograd, SecondBackwardOverwritesGrads) {
  auto x = Tensor::from_data({1}, {2}, true);
  auto loss1 = square(x);
  loss1.backward();
  EXPECT_EQ(x.grad()[0], 4.0f);
  auto loss2 = scale(x, 3.0f);
  loss2.backward();
  EXPECT_EQ(x.grad()[0], 3.0f);  // overwritten, not accumulated
}

TEST(Shape, Helpers) {
  EXPECT_EQ(numel({2, 3, 4}), 24);
  EXPECT_EQ(to_string({2, 3}), "(2, 3)");
  EXPECT_THROW((void)numel({2, 0}), dt::Error);
}

}  // namespace
}  // namespace dt::tensor
