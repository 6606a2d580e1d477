#include "common/rng.hpp"

namespace dt {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Xoshiro256ss::result_type Xoshiro256ss::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256ss::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (*this)();
    }
  }
  s_ = acc;
}

Philox4x32::Philox4x32(std::uint64_t seed, std::uint64_t stream) {
  // Key mixes seed and stream so distinct (seed, stream) pairs give
  // statistically independent sequences.
  SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  const std::uint64_t k = sm.next();
  key_ = {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
}

std::array<std::uint32_t, 4> Philox4x32::block(std::uint64_t ctr_lo,
                                               std::uint64_t ctr_hi) const {
  std::array<std::uint32_t, 4> ctr = {
      static_cast<std::uint32_t>(ctr_lo),
      static_cast<std::uint32_t>(ctr_lo >> 32),
      static_cast<std::uint32_t>(ctr_hi),
      static_cast<std::uint32_t>(ctr_hi >> 32)};
  std::array<std::uint32_t, 2> key = key_;

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
    const std::array<std::uint32_t, 4> next = {
        static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
        static_cast<std::uint32_t>(p1),
        static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
        static_cast<std::uint32_t>(p0)};
    ctr = next;
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

Philox4x32::result_type Philox4x32::operator()() {
  if (buf_pos_ == 4) {
    buf_ = block(counter_, 0);
    ++counter_;
    buf_pos_ = 0;
  }
  return buf_[buf_pos_++];
}

void Philox4x32::fill(std::span<result_type> out) {
  std::size_t i = 0;
  const std::size_t n = out.size();
  while (i < n && buf_pos_ < 4) out[i++] = buf_[buf_pos_++];
  for (; i + 4 <= n; i += 4) {
    const auto b = block(counter_++, 0);
    for (std::size_t j = 0; j < 4; ++j) out[i + j] = b[j];
  }
  if (i < n) {
    buf_ = block(counter_++, 0);
    buf_pos_ = 0;
    while (i < n) out[i++] = buf_[buf_pos_++];
  }
}

void Philox4x32::seek(std::uint64_t draw_index) {
  counter_ = draw_index / 4;
  buf_ = block(counter_, 0);
  ++counter_;
  buf_pos_ = static_cast<unsigned>(draw_index % 4);
}

std::uint64_t stream_id(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  // Three rounds of SplitMix-style mixing over the packed coordinates.
  SplitMix64 sm(a * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t h = sm.next() ^ (b * 0xbf58476d1ce4e5b9ULL);
  SplitMix64 sm2(h);
  h = sm2.next() ^ (c * 0x94d049bb133111ebULL);
  SplitMix64 sm3(h);
  return sm3.next();
}

}  // namespace dt
