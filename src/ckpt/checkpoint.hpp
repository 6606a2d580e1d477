// Run-level crash-consistent checkpointing.
//
// A checkpoint is one binary file holding a versioned manifest of named
// component records (walker states, VAE weights, optimizer moments,
// pipeline phase, ...). Every component carries a CRC32 and the whole
// file ends in a CRC32 trailer, so truncation or bit-rot is detected on
// load rather than silently resumed from. Each payload byte is CRC'd
// once per save and once per load: the trailer is combined from the
// component CRCs, never recomputed over the file. Files are written
// crash-consistently: stream the pieces to <name>.tmp, fsync, then
// atomically rename into place -- a crash mid-save leaves the previous
// generation untouched and loadable.
//
// A CheckpointStore manages a directory of numbered generations
// (ckpt-000042.dtc): save() appends a new generation and prunes old
// ones, load_latest() returns the newest generation that validates,
// falling back to earlier generations when the newest is corrupt.
//
// The layer sits just above common/ (serialization, errors) and obs/
// (save size/latency metrics); samplers and models serialize themselves
// into component blobs via their own save_state/save methods.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::ckpt {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `seed` chains
/// incremental computation: crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(std::span<const char> data,
                                  std::uint32_t seed = 0);

/// CRC-32 of the concatenation a + b from crc32(a), crc32(b) and the
/// length of b, without reading either: crc32_combine(crc32(a), crc32(b),
/// b.size()) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a,
                                          std::uint32_t crc_b,
                                          std::uint64_t length_b);

/// Accumulates named component blobs and encodes them into the on-disk
/// manifest format (see DESIGN.md "Checkpoint manifest format").
class CheckpointBuilder {
 public:
  /// Add one component; names must be unique within a checkpoint.
  void add(const std::string& name, std::string payload);

  /// Convenience: stream-serialize a component in place.
  ///   builder.component("rank0", [&](std::ostream& os) { w.save_state(os); });
  template <class Fn>
  void component(const std::string& name, Fn&& serialize) {
    std::ostringstream os(std::ios::binary);
    serialize(os);
    add(name, std::move(os).str());
  }

  [[nodiscard]] std::size_t size() const { return components_.size(); }

  /// Serialize the manifest: header, component directory + payloads
  /// (each CRC32-protected), file-level CRC32 trailer.
  [[nodiscard]] std::string encode(std::uint64_t generation) const;

 private:
  friend class CheckpointStore;
  /// The encoded file as byte ranges in file order; the one writer of the
  /// format, behind both encode() and CheckpointStore::save.
  class Encoding;

  std::vector<std::pair<std::string, std::string>> components_;
};

/// A decoded, validated checkpoint.
class Checkpoint {
 public:
  /// Parse and validate `bytes`; throws dt::Error on bad magic, version
  /// mismatch, truncation or any CRC failure.
  static Checkpoint decode(const std::string& bytes);

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] bool has(const std::string& name) const;
  /// Component payload; throws dt::Error when absent.
  [[nodiscard]] const std::string& blob(const std::string& name) const;
  /// Component payload as a binary istream (for load_state methods).
  [[nodiscard]] std::istringstream stream(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::uint64_t generation_ = 0;
  std::vector<std::pair<std::string, std::string>> components_;
};

struct SaveReport {
  std::uint64_t generation = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;   ///< CRC + write + fsync + rename
  std::string path;
};

/// Directory of checkpoint generations with atomic saves.
class CheckpointStore {
 public:
  /// Creates `dir` if needed. `keep_last` bounds retained generations
  /// (>= 1; older files are pruned after each successful save).
  explicit CheckpointStore(std::string dir, int keep_last = 3);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Stream a new generation crash-consistently (tmp + fsync + rename),
  /// bump metrics (ckpt.saves / ckpt.bytes_total / ckpt.last_*) and emit
  /// a "checkpoint" telemetry event when telemetry is enabled.
  SaveReport save(const CheckpointBuilder& builder);

  /// Newest generation that decodes and validates; corrupt/truncated
  /// files are skipped (with a warning) in favour of older generations.
  [[nodiscard]] std::optional<Checkpoint> load_latest() const;
  [[nodiscard]] std::optional<Checkpoint> load_generation(
      std::uint64_t generation) const;

  /// Sorted (ascending) generation numbers present on disk.
  [[nodiscard]] std::vector<std::uint64_t> generations() const;

  [[nodiscard]] static std::string filename(std::uint64_t generation);

 private:
  std::string dir_;
  int keep_last_;
  /// Serialises concurrent save() calls on one store: each claims a
  /// distinct generation number.
  Mutex mutex_;
  std::uint64_t next_generation_ DT_GUARDED_BY(mutex_) = 1;
};

}  // namespace dt::ckpt
