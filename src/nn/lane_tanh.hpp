// tanh over a buffer, a native SIMD register at a time, equal to libm's.
//
// The VAE's hidden activations go through tanh on every decode and every
// training step. Trained weights, and through them every trajectory and
// checkpoint, depend on each rounding (Trainer.TrainingMatchesGoldenHash
// pins them), so this is not an approximation: it returns std::tanh(x)
// bit for bit on every float. See DESIGN.md "Proposal layer".
#pragma once

#include <span>

namespace dt::nn {

/// v = std::tanh(v) for every element, bit for bit.
void lane_tanh(std::span<float> values);

}  // namespace dt::nn
