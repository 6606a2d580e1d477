// Unit tests of the src/ckpt layer: CRC validation, manifest
// encode/decode, crash-consistent store semantics (generation fallback,
// pruning), the fault injector and the signal flags.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "ckpt/fault.hpp"
#include "ckpt/signal.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"

namespace dt::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the test temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::path(::testing::TempDir()) / name;
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte-at-a-time CRC-32 straight from the polynomial: the reference the
/// library's table-driven crc32 must reproduce.
std::uint32_t crc32_bytewise(std::span<const char> data,
                             std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const char byte : data) {
    c ^= static_cast<std::uint8_t>(byte);
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// `n` deterministic pseudo-random bytes.
std::string noise(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = splitmix64(seed);
    for (std::size_t k = 0; k < 8 && i + k < n; ++k)
      out[i + k] = static_cast<char>((word >> (8 * k)) & 0xFFu);
  }
  return out;
}

TEST(Crc32, MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const std::string data = "123456789";
  EXPECT_EQ(crc32({data.data(), data.size()}), 0xCBF43926u);
}

TEST(Crc32, SeedChainsIncrementally) {
  const std::string a = "hello ", b = "world";
  const std::string ab = a + b;
  const auto whole = crc32({ab.data(), ab.size()});
  const auto chained =
      crc32({b.data(), b.size()}, crc32({a.data(), a.size()}));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32, MatchesBytewiseReference) {
  // Every short length at every alignment, so each tail and head path of
  // the sliced loop is hit, with a random chaining seed each time.
  const std::string buf = noise(64 + 8, 1);
  std::uint64_t seeds = 99;
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const char> piece(buf.data() + off, len);
      const auto seed = static_cast<std::uint32_t>(splitmix64(seeds));
      EXPECT_EQ(crc32(piece, seed), crc32_bytewise(piece, seed))
          << "offset " << off << " length " << len;
    }
  }
  const std::string big = noise(std::size_t{1} << 20, 2);
  EXPECT_EQ(crc32({big.data(), big.size()}),
            crc32_bytewise({big.data(), big.size()}));
}

TEST(Crc32, CombineMatchesConcatenation) {
  const std::string data = noise(4099, 3);
  const std::uint32_t whole = crc32({data.data(), data.size()});
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{64}, std::size_t{2048}, std::size_t{4098},
        std::size_t{4099}}) {
    const std::span<const char> a(data.data(), cut);
    const std::span<const char> b(data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), whole)
        << "cut at " << cut;
  }
  // Empty parts on either side, and two empties.
  const std::uint32_t empty = crc32({});
  EXPECT_EQ(crc32_combine(whole, empty, 0), whole);
  EXPECT_EQ(crc32_combine(empty, whole, data.size()), whole);
  EXPECT_EQ(crc32_combine(empty, empty, 0), empty);
}

TEST(Checkpoint, EncodeDecodeRoundTripsComponents) {
  CheckpointBuilder builder;
  builder.add("alpha", std::string("payload-a"));
  builder.add("beta", std::string("\x00\x01\x02\xff", 4));
  builder.component("gamma", [](std::ostream& os) { os << "streamed"; });

  const auto ck = Checkpoint::decode(builder.encode(7));
  EXPECT_EQ(ck.generation(), 7u);
  EXPECT_TRUE(ck.has("alpha"));
  EXPECT_TRUE(ck.has("beta"));
  EXPECT_FALSE(ck.has("delta"));
  EXPECT_EQ(ck.blob("alpha"), "payload-a");
  EXPECT_EQ(ck.blob("beta"), std::string("\x00\x01\x02\xff", 4));
  EXPECT_EQ(ck.blob("gamma"), "streamed");
  EXPECT_EQ(ck.names().size(), 3u);
}

TEST(Checkpoint, PreRefactorRawDoublePayloadStaysBitExact) {
  // Checkpoints written before the typed-units refactor serialized bare
  // doubles. The typed layer (common/units.hpp) must not change that
  // byte layout: a payload authored with raw write_pod<double> values
  // decodes unchanged, and wrapping the read value in a unit type is a
  // bit-exact no-op.
  const double energy = -123.456789e-3;
  const double log_f = 2.7182818284590452;
  std::ostringstream legacy;
  write_pod(legacy, energy);
  write_pod(legacy, log_f);

  std::ostringstream typed;
  write_pod(typed, units::Energy(energy).value());
  write_pod(typed, units::LogWeight(log_f).value());
  ASSERT_EQ(legacy.str(), typed.str());

  CheckpointBuilder builder;
  builder.add("walker", legacy.str());
  const auto ck = Checkpoint::decode(builder.encode(3));
  std::istringstream is(ck.blob("walker"));
  const units::Energy e_back(read_pod<double>(is));
  const units::LogWeight f_back(read_pod<double>(is));
  EXPECT_EQ(e_back.value(), energy);
  EXPECT_EQ(f_back.value(), log_f);
}

TEST(Checkpoint, DuplicateComponentNameThrows) {
  CheckpointBuilder builder;
  builder.add("x", "1");
  EXPECT_THROW(builder.add("x", "2"), dt::Error);
}

TEST(Checkpoint, MissingComponentThrows) {
  CheckpointBuilder builder;
  builder.add("x", "1");
  const auto ck = Checkpoint::decode(builder.encode(1));
  EXPECT_THROW((void)ck.blob("missing"), dt::Error);
}

TEST(Checkpoint, TruncationIsDetected) {
  CheckpointBuilder builder;
  builder.add("x", std::string(256, 'q'));
  const std::string bytes = builder.encode(1);
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{4}, std::size_t{0}}) {
    EXPECT_THROW(Checkpoint::decode(bytes.substr(0, cut)), dt::Error)
        << "cut at " << cut;
  }
}

TEST(Checkpoint, BitFlipAnywhereIsDetected) {
  CheckpointBuilder builder;
  builder.add("x", std::string(64, 'q'));
  const std::string bytes = builder.encode(1);
  // Flip one bit at a spread of offsets: header, directory, payload,
  // trailer. Every flip must fail validation (either the file CRC or a
  // component CRC).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_THROW(Checkpoint::decode(bad), dt::Error) << "flip at " << i;
  }
}

TEST(CheckpointStore, SaveLoadRoundTrip) {
  TempDir dir("ckpt_roundtrip");
  CheckpointStore store(dir.str());
  CheckpointBuilder builder;
  builder.add("walker", "state-bytes");
  const SaveReport report = store.save(builder);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_GT(report.bytes, 0u);
  EXPECT_TRUE(fs::exists(report.path));

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("walker"), "state-bytes");
}

TEST(CheckpointStore, NoTempFileSurvivesASave) {
  TempDir dir("ckpt_tmpfiles");
  CheckpointStore store(dir.str());
  CheckpointBuilder builder;
  builder.add("x", "1");
  store.save(builder);
  for (const auto& entry : fs::directory_iterator(dir.path))
    EXPECT_EQ(entry.path().extension(), ".dtc") << entry.path();
}

TEST(CheckpointStore, SavedFileBytesArePinned) {
  // A fixed builder -- a multi-MB payload, an empty component, odd sizes
  // -- saved through the store. Size and CRC were recorded from the
  // original whole-image save path; the file format must not drift.
  CheckpointBuilder builder;
  builder.add("rank0", noise(3 * 1024 * 1024 + 5, 11));
  builder.add("empty", std::string());
  builder.add("odd", noise(12345, 12));
  builder.add("x", noise(1, 13));
  builder.component("meta", [](std::ostream& os) {
    write_pod<std::int64_t>(os, 42);
    write_string(os, "seven");
  });
  TempDir dir("ckpt_pinned");
  CheckpointStore store(dir.str());
  const SaveReport report = store.save(builder);
  const std::string bytes = read_file(report.path);
  EXPECT_EQ(report.bytes, bytes.size());
  EXPECT_EQ(bytes.size(), std::size_t{3158246});
  EXPECT_EQ(crc32_bytewise({bytes.data(), bytes.size()}), 0x2144DF1Cu);
  EXPECT_EQ(builder.encode(report.generation), bytes);
}

TEST(CheckpointStore, CorruptNewestFallsBackToPreviousGeneration) {
  TempDir dir("ckpt_fallback");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "generation-one");
  store.save(b1);
  CheckpointBuilder b2;
  b2.add("x", "generation-two");
  const auto rep2 = store.save(b2);

  // Corrupt generation 2 mid-file.
  std::string bytes = read_file(rep2.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  write_file(rep2.path, bytes);

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
  EXPECT_EQ(ck->blob("x"), "generation-one");
  // The corrupt generation is individually rejected.
  EXPECT_FALSE(store.load_generation(2).has_value());
  EXPECT_TRUE(store.load_generation(1).has_value());
}

TEST(CheckpointStore, TruncatedNewestFallsBack) {
  TempDir dir("ckpt_trunc");
  CheckpointStore store(dir.str());
  CheckpointBuilder b1;
  b1.add("x", "one");
  store.save(b1);
  CheckpointBuilder b2;
  b2.add("x", "two");
  const auto rep2 = store.save(b2);

  const std::string bytes = read_file(rep2.path);
  write_file(rep2.path, bytes.substr(0, bytes.size() / 3));

  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->generation(), 1u);
}

TEST(CheckpointStore, PrunesToKeepLast) {
  TempDir dir("ckpt_prune");
  CheckpointStore store(dir.str(), /*keep_last=*/2);
  for (int i = 0; i < 5; ++i) {
    CheckpointBuilder b;
    b.add("x", std::to_string(i));
    store.save(b);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{4, 5}));
  const auto ck = store.load_latest();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->blob("x"), "4");
}

TEST(CheckpointStore, ResumesGenerationNumberingFromDisk) {
  TempDir dir("ckpt_regen");
  {
    CheckpointStore store(dir.str());
    CheckpointBuilder b;
    b.add("x", "1");
    store.save(b);
  }
  CheckpointStore reopened(dir.str());
  CheckpointBuilder b;
  b.add("x", "2");
  EXPECT_EQ(reopened.save(b).generation, 2u);
}

TEST(CheckpointStore, EmptyDirectoryLoadsNothing) {
  TempDir dir("ckpt_empty");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_TRUE(store.generations().empty());
}

TEST(FaultInjector, DisarmedFaultPointIsFree) {
  FaultInjector::instance().disarm();
  EXPECT_NO_THROW(fault_point("anything"));
}

TEST(FaultInjector, ArmedSiteThrowsAfterSkippedHits) {
  auto& inj = FaultInjector::instance();
  inj.arm("site.a", /*skip_hits=*/2);
  EXPECT_NO_THROW(fault_point("site.b"));  // other sites unaffected
  EXPECT_NO_THROW(fault_point("site.a"));  // hit 1: skipped
  EXPECT_NO_THROW(fault_point("site.a"));  // hit 2: skipped
  EXPECT_THROW(fault_point("site.a"), FaultInjected);
  // One-shot: disarmed after triggering.
  EXPECT_NO_THROW(fault_point("site.a"));
}

TEST(FaultInjector, CountsVisitsWhenEnabled) {
  auto& inj = FaultInjector::instance();
  inj.disarm();
  inj.reset_counts();
  inj.count_visits(true);
  fault_point("site.c");
  fault_point("site.c");
  fault_point("site.d");
  EXPECT_EQ(inj.hits("site.c"), 2);
  EXPECT_EQ(inj.hits("site.d"), 1);
  EXPECT_EQ(inj.hits("site.never"), 0);
  inj.count_visits(false);
  fault_point("site.c");
  EXPECT_EQ(inj.hits("site.c"), 2);
}

TEST(SignalFlags, SaveRequestIsConsumedOnce) {
  auto& flags = SignalFlags::instance();
  flags.reset();
  EXPECT_FALSE(flags.consume_save_request());
  flags.request_save();
  EXPECT_TRUE(flags.consume_save_request());
  EXPECT_FALSE(flags.consume_save_request());
}

TEST(SignalFlags, StopIsSticky) {
  auto& flags = SignalFlags::instance();
  flags.reset();
  EXPECT_FALSE(flags.stop_requested());
  flags.request_stop();
  EXPECT_TRUE(flags.stop_requested());
  EXPECT_TRUE(flags.stop_requested());
  flags.reset();
  EXPECT_FALSE(flags.stop_requested());
}

}  // namespace
}  // namespace dt::ckpt
