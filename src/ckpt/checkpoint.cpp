#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/strfmt.hpp"
#include "obs/telemetry.hpp"

namespace dt::ckpt {

namespace {

constexpr std::uint64_t kMagic = 0x44'54'43'4B'50'54'30'31ULL;  // "DTCKPT01"
constexpr std::uint32_t kVersion = 1;
constexpr const char* kSuffix = ".dtc";

// Fixed sizes of the manifest's framing (DESIGN.md "Checkpoint manifest
// format"): magic + version + generation + count; a component frame
// without its name (name length, CRC, payload length); the trailer.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kFrameBytes = 8 + 4 + 8;
constexpr std::size_t kTrailerBytes = 4;

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slicing-by-16: table[s][b] is the CRC register after byte b is followed
// by s zero bytes, so one step folds 16 input bytes with 16 independent
// lookups instead of a 16-long dependent chain.
constexpr std::size_t kCrcSlices = 16;
using CrcTables = std::array<std::array<std::uint32_t, 256>, kCrcSlices>;

constexpr CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? kCrcPoly ^ (c >> 1) : c >> 1;
    table[0][i] = c;
  }
  for (std::size_t s = 1; s < kCrcSlices; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      table[s][i] = (table[s - 1][i] >> 8) ^ table[0][table[s - 1][i] & 0xFFu];
  return table;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// GF(2) arithmetic modulo the CRC polynomial, bit-reflected as the CRC
// register is (zlib's crc32_combine method). a * b mod p; a != 0.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t product = 0;
  for (;;) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) mod p.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> table{};
  table[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < table.size(); ++k)
    table[k] = multmodp(table[k - 1], table[k - 1]);
  return table;
}

constexpr std::array<std::uint32_t, 32> kX2n = make_x2n_table();

// x^(n * 2^k) mod p.
std::uint32_t x2nmodp(std::uint64_t n, std::size_t k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k)
    if ((n & 1u) != 0) p = multmodp(kX2n[k & 31u], p);
  return p;
}

template <class T>
void append_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked reader over an encoded image; it hands out views and
/// never copies the image.
class Cursor {
 public:
  explicit Cursor(std::span<const char> bytes) : rest_(bytes) {}

  [[nodiscard]] const char* position() const { return rest_.data(); }

  std::span<const char> take(std::uint64_t n) {
    DT_CHECK_MSG(n <= rest_.size(), "checkpoint: truncated file");
    const auto out = rest_.first(static_cast<std::size_t>(n));
    rest_ = rest_.subspan(static_cast<std::size_t>(n));
    return out;
  }

  template <class T>
  T pod() {
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// A u64-length-prefixed byte string (common/serialize.hpp's layout).
  std::span<const char> blob() { return take(pod<std::uint64_t>()); }

  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  std::span<const char> rest_;
};

/// writev every piece to `fd`, resuming after short writes.
bool write_pieces(int fd, std::span<const std::span<const char>> pieces) {
  std::vector<::iovec> iov;
  iov.reserve(pieces.size());
  for (const auto piece : pieces)
    if (!piece.empty())
      iov.push_back({const_cast<char*>(piece.data()), piece.size()});
  std::size_t next = 0;
  while (next < iov.size()) {
    const auto count = std::min<std::size_t>(iov.size() - next, IOV_MAX);
    const ::ssize_t n =
        ::writev(fd, iov.data() + next, static_cast<int>(count));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto written = static_cast<std::size_t>(n);
    while (next < iov.size() && written >= iov[next].iov_len)
      written -= iov[next++].iov_len;
    if (written > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + written;
      iov[next].iov_len -= written;
    }
  }
  return true;
}

}  // namespace

std::uint32_t crc32(std::span<const char> data, std::uint32_t seed) {
  const auto& table = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= kCrcSlices; p += kCrcSlices, n -= kCrcSlices) {
    std::uint32_t next = 0;
    for (std::size_t j = 0; j < kCrcSlices; ++j) {
      std::uint32_t byte = p[j];
      if (j < 4) byte ^= (c >> (8 * j)) & 0xFFu;
      next ^= table[kCrcSlices - 1 - j][byte];
    }
    c = next;
  }
  for (; n > 0; ++p, --n) c = table[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t length_b) {
  // Appending length_b bytes multiplies a's register by x^(8 length_b).
  return multmodp(x2nmodp(length_b, 3), crc_a) ^ crc_b;
}

class CheckpointBuilder::Encoding {
 public:
  Encoding(const CheckpointBuilder& builder, std::uint64_t generation) {
    std::size_t framing_bytes = kHeaderBytes + kTrailerBytes;
    for (const auto& [name, payload] : builder.components_)
      framing_bytes += kFrameBytes + name.size();
    // The pieces point into framing_, so it must never reallocate.
    framing_.reserve(framing_bytes);

    append_pod(framing_, kMagic);
    append_pod(framing_, kVersion);
    append_pod(framing_, generation);
    append_pod(framing_,
               static_cast<std::uint32_t>(builder.components_.size()));
    std::uint32_t file_crc = crc32(add_framing(0));
    for (const auto& [name, payload] : builder.components_) {
      const std::size_t frame_start = framing_.size();
      const std::uint32_t payload_crc = crc32({payload.data(), payload.size()});
      append_pod<std::uint64_t>(framing_, name.size());
      framing_ += name;
      append_pod(framing_, payload_crc);
      append_pod<std::uint64_t>(framing_, payload.size());
      file_crc = crc32_combine(crc32(add_framing(frame_start), file_crc),
                               payload_crc, payload.size());
      pieces_.emplace_back(payload.data(), payload.size());
      bytes_ += payload.size();
    }
    const std::size_t trailer_start = framing_.size();
    append_pod(framing_, file_crc);
    add_framing(trailer_start);
    DT_CHECK(framing_.size() == framing_bytes);
  }
  Encoding(const Encoding&) = delete;
  Encoding& operator=(const Encoding&) = delete;

  [[nodiscard]] std::span<const std::span<const char>> pieces() const {
    return pieces_;
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  /// Records framing_[start, end) as the next piece.
  std::span<const char> add_framing(std::size_t start) {
    const std::span<const char> piece(framing_.data() + start,
                                      framing_.size() - start);
    pieces_.push_back(piece);
    bytes_ += piece.size();
    return piece;
  }

  std::string framing_;
  std::vector<std::span<const char>> pieces_;
  std::size_t bytes_ = 0;
};

void CheckpointBuilder::add(const std::string& name, std::string payload) {
  DT_CHECK_MSG(!name.empty(), "checkpoint: empty component name");
  for (const auto& [existing, blob] : components_)
    DT_CHECK_MSG(existing != name,
                 "checkpoint: duplicate component '" << name << "'");
  components_.emplace_back(name, std::move(payload));
}

std::string CheckpointBuilder::encode(std::uint64_t generation) const {
  const Encoding encoding(*this, generation);
  std::string bytes;
  bytes.reserve(encoding.bytes());
  for (const auto piece : encoding.pieces())
    bytes.append(piece.data(), piece.size());
  return bytes;
}

Checkpoint Checkpoint::decode(const std::string& bytes) {
  DT_CHECK_MSG(bytes.size() > sizeof(kMagic) + kTrailerBytes,
               "checkpoint: file too short");
  // One pass: each payload is CRC'd once against its component CRC, and
  // the file-level trailer (the CRC of everything before it) is combined
  // from the framing and component CRCs. Reading stops at the trailer, so
  // a truncated or corrupted file fails a bound, a magic/version check or
  // a CRC.
  const std::size_t body = bytes.size() - kTrailerBytes;
  Cursor in({bytes.data(), body});
  DT_CHECK_MSG(in.pod<std::uint64_t>() == kMagic, "checkpoint: bad magic");
  const auto version = in.pod<std::uint32_t>();
  DT_CHECK_MSG(version == kVersion,
               "checkpoint: unsupported manifest version " << version);
  Checkpoint out;
  out.generation_ = in.pod<std::uint64_t>();
  const auto n = in.pod<std::uint32_t>();
  std::uint32_t file_crc = crc32({bytes.data(), kHeaderBytes});
  for (std::uint32_t i = 0; i < n; ++i) {
    const char* frame = in.position();
    const auto name = in.blob();
    const auto component_crc = in.pod<std::uint32_t>();
    const auto payload = in.blob();
    const auto payload_crc = crc32(payload);
    file_crc = crc32_combine(crc32({frame, payload.data()}, file_crc),
                             payload_crc, payload.size());
    std::string component(name.begin(), name.end());
    DT_CHECK_MSG(payload_crc == component_crc,
                 "checkpoint: component '" << component << "' CRC mismatch");
    out.components_.emplace_back(std::move(component),
                                 std::string(payload.begin(), payload.end()));
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof(stored_crc));
  DT_CHECK_MSG(in.done() && file_crc == stored_crc,
               "checkpoint: file CRC mismatch (truncated or corrupted)");
  return out;
}

bool Checkpoint::has(const std::string& name) const {
  for (const auto& [n, blob] : components_)
    if (n == name) return true;
  return false;
}

const std::string& Checkpoint::blob(const std::string& name) const {
  for (const auto& [n, blob] : components_)
    if (n == name) return blob;
  throw Error("checkpoint: missing component '" + name + "'");
}

std::istringstream Checkpoint::stream(const std::string& name) const {
  return std::istringstream(blob(name), std::ios::binary);
}

std::vector<std::string> Checkpoint::names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& [n, blob] : components_) out.push_back(n);
  return out;
}

std::string CheckpointStore::filename(std::uint64_t generation) {
  return strformat("ckpt-%06llu%s",
                   static_cast<unsigned long long>(generation), kSuffix);
}

CheckpointStore::CheckpointStore(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  DT_CHECK_MSG(keep_last_ >= 1, "checkpoint store must keep >= 1 generation");
  DT_CHECK_MSG(!dir_.empty(), "checkpoint store needs a directory");
  std::filesystem::create_directories(dir_);
  const auto gens = generations();
  if (!gens.empty()) next_generation_ = gens.back() + 1;
}

std::vector<std::uint64_t> CheckpointStore::generations() const {
  std::vector<std::uint64_t> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 6 + 4) continue;
    if (name.substr(name.size() - 4) != kSuffix) continue;
    const std::string digits = name.substr(5, name.size() - 5 - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.push_back(std::stoull(digits));
  }
  std::sort(out.begin(), out.end());
  return out;
}

SaveReport CheckpointStore::save(const CheckpointBuilder& builder) {
  Stopwatch clock;
  const std::uint64_t generation = [this] {
    MutexLock lock(mutex_);
    return next_generation_++;
  }();
  const CheckpointBuilder::Encoding encoding(builder, generation);

  const std::string final_path = dir_ + "/" + filename(generation);
  const std::string tmp_path = final_path + ".tmp";

  // Crash-consistency protocol: stream the pieces to a temp file, fsync
  // it, atomically rename over the final name, then fsync the directory
  // so the rename itself is durable. A crash at any point leaves either
  // the previous generation (tmp ignored on load) or the complete new one.
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    DT_CHECK_MSG(fd >= 0, "checkpoint: cannot open " << tmp_path);
    if (!write_pieces(fd, encoding.pieces())) {
      ::close(fd);
      DT_CHECK_MSG(false, "checkpoint: write failed for " << tmp_path);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    DT_CHECK_MSG(synced, "checkpoint: fsync failed for " << tmp_path);
  }
  DT_CHECK_MSG(std::rename(tmp_path.c_str(), final_path.c_str()) == 0,
               "checkpoint: rename to " << final_path << " failed");
  {
    const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }

  // Prune old generations (never the one just written).
  const auto gens = generations();
  if (gens.size() > static_cast<std::size_t>(keep_last_)) {
    const std::size_t drop = gens.size() - static_cast<std::size_t>(keep_last_);
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      std::filesystem::remove(dir_ + "/" + filename(gens[i]), ec);
    }
  }

  SaveReport report;
  report.generation = generation;
  report.bytes = encoding.bytes();
  report.seconds = clock.seconds();
  report.path = final_path;

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("ckpt.saves").add();
  metrics.counter("ckpt.bytes_total").add(report.bytes);
  metrics.gauge("ckpt.last_bytes").set(static_cast<double>(report.bytes));
  metrics.gauge("ckpt.last_save_seconds").set(report.seconds);
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  if (telemetry.enabled()) {
    telemetry.emit(obs::Event("checkpoint")
                       .with("generation", report.generation)
                       .with("bytes", static_cast<std::uint64_t>(report.bytes))
                       .with("seconds", report.seconds)
                       .with("path", report.path));
  }
  return report;
}

std::optional<Checkpoint> CheckpointStore::load_latest() const {
  const auto gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    auto ckpt = load_generation(*it);
    if (ckpt) return ckpt;
  }
  return std::nullopt;
}

std::optional<Checkpoint> CheckpointStore::load_generation(
    std::uint64_t generation) const {
  const std::string path = dir_ + "/" + filename(generation);
  Stopwatch clock;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return std::nullopt;
  try {
    // One buffer of the file's size; decode reads it in place.
    std::string bytes(static_cast<std::size_t>(in.tellg()), '\0');
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    DT_CHECK_MSG(in.good(), "checkpoint: short read");
    auto ckpt = Checkpoint::decode(bytes);
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("ckpt.loads").add();
    metrics.gauge("ckpt.last_load_seconds").set(clock.seconds());
    return ckpt;
  } catch (const Error& e) {
    DT_LOG_WARN << "checkpoint: skipping invalid " << path << ": "
                << e.what();
    return std::nullopt;
  }
}

}  // namespace dt::ckpt
