// Sampling-health plane: lock-free per-walker cells the REWL driver and
// the framework publish into, plus a stall watchdog.
//
// The signals mirror what determines REWL window/walker allocation in
// practice (Naguszewski et al. 2025): per-walker flatness progression and
// ln f stage, per-window-pair exchange-acceptance EWMA, round-trip
// counts/times and the VAE-vs-local proposal acceptance split. Walkers
// publish one WalkerBlock record per exchange block (one relaxed store
// per 64-bit word); the HTTP observability server and the bench
// harnesses read a consistent-enough snapshot() concurrently without
// stopping the run.
//
// The watchdog flags a walker "stalled" when its flatness ratio has not
// improved (within its current ln f stage) for a configurable wall-clock
// budget; verdicts surface through /healthz, the
// `health.stalled_walkers` gauge and a WARN log on the transition.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"

namespace dt::obs {

/// Eight-byte boolean: keeps WalkerBlock free of padding, so the health
/// cell can hold the record as whole 64-bit words.
enum class Flag : std::uint64_t { kNo = 0, kYes = 1 };

/// The walker field table: X(type, name, initial value), in sink order.
/// It declares WalkerBlock's members and gives every sink its field
/// names, and it is the set of keys a proposal kernel may report, so
/// adding a field is one row here. Every type is 8 bytes wide (checked
/// below) so the health cell can copy the record as words.
#define DT_WALKER_FIELDS(X)                                             \
  X(std::int64_t, rank, 0)                                              \
  X(std::int64_t, window, -1)                                           \
  X(std::int64_t, round, 0)                                             \
  X(std::int64_t, sweeps, 0)                                            \
  X(double, sweeps_per_s, 0.0)                                          \
  X(double, log_f, 0.0)                                                 \
  X(std::int64_t, f_stage, 0)                                           \
  X(double, flatness, 0.0)                                              \
  X(double, acceptance, 0.0)                                            \
  X(std::uint64_t, round_trips, 0)                                      \
  /* window of this round's exchange partner; -1 when none */           \
  X(std::int64_t, partner_window, -1)                                   \
  X(std::int64_t, exch_attempted, 0)                                    \
  X(std::int64_t, exch_accepted, 0)                                     \
  /* proposal-kernel telemetry; zero for kernels that report none */    \
  X(std::uint64_t, local_proposed, 0)                                   \
  X(double, local_acceptance, 0.0)                                      \
  X(std::uint64_t, vae_proposed, 0)                                     \
  X(double, vae_acceptance, 0.0)                                        \
  /* VAE rows decoded and changed sites, counted since the */           \
  /* kernel was built (not checkpointed) */                             \
  X(std::uint64_t, vae_decoded, 0)                                      \
  X(std::uint64_t, vae_changed_sites, 0)                                \
  /* DecodePlane::wait total ms and count; 0 without a plane */        \
  X(double, vae_decode_wait_ms, 0.0)                                    \
  X(std::uint64_t, vae_decode_waits, 0)                                 \
  X(double, energy, 0.0)                                                \
  X(std::uint64_t, rng_position, 0)                                     \
  X(Flag, converged, Flag::kNo)

/// One walker's state at the end of an exchange block -- the single
/// record every per-walker sink renders: the health cells (/status,
/// Prometheus, the bench --json health block), the `rewl_walker`
/// telemetry event, the progress line and rank 0's end-of-run gather.
struct WalkerBlock {
#define DT_WALKER_MEMBER(type, name, init) type name = init;
  DT_WALKER_FIELDS(DT_WALKER_MEMBER)
#undef DT_WALKER_MEMBER
};

#define DT_WALKER_WORD(type, name, init) \
  static_assert(sizeof(type) == sizeof(std::uint64_t), #name);
DT_WALKER_FIELDS(DT_WALKER_WORD)
#undef DT_WALKER_WORD

/// A field's value as the sinks take it: flags become bool.
template <typename T>
constexpr T field_value(T value) {
  return value;
}
constexpr bool field_value(Flag value) { return value == Flag::kYes; }

/// Call fn(name, value) for every field in table order.
template <typename Fn>
void for_each_field(const WalkerBlock& block, Fn&& fn) {
#define DT_WALKER_VISIT(type, name, init) \
  fn(std::string_view(#name), field_value(block.name));
  DT_WALKER_FIELDS(DT_WALKER_VISIT)
#undef DT_WALKER_VISIT
}

/// Set the field called `name` from a kernel-telemetry value; a name
/// outside the table is a DT_CHECK failure.
void set_field(WalkerBlock& block, std::string_view name, double value);

/// One walker's live health state: the last published WalkerBlock as
/// relaxed 64-bit words plus what the registry derives from the stream
/// of blocks. Readers may observe a mid-block mix of old and new words,
/// but never a torn word (asserted under TSan by test_http_obs).
struct alignas(64) WalkerHealthCell {
  static constexpr std::size_t kWords =
      sizeof(WalkerBlock) / sizeof(std::uint64_t);
  std::array<std::atomic<std::uint64_t>, kWords> words{};
  std::atomic<double> best_flatness{0.0};  ///< within best_stage
  std::atomic<std::int64_t> best_stage{0};
  std::atomic<bool> stalled{false};
  /// Registry-clock time of the last flatness improvement (stage resets
  /// count as improvements: each ln f stage restarts the histogram).
  std::atomic<double> last_improve_s{0.0};

  /// Bounded flatness trajectory: ring of (sweeps, flatness) samples,
  /// one per publish. Slots are written before the head index advances.
  static constexpr std::size_t kTrajectoryLen = 64;
  struct TrajectoryPoint {
    std::atomic<std::int64_t> sweeps{-1};
    std::atomic<double> flatness{0.0};
  };
  TrajectoryPoint trajectory[kTrajectoryLen];
  std::atomic<std::uint64_t> trajectory_head{0};

  void store(const WalkerBlock& block);
  [[nodiscard]] WalkerBlock load() const;
};

/// One adjacent-window pair's exchange statistics (pair i = windows
/// i <-> i+1); all walkers of the pair update it.
struct alignas(64) PairHealthCell {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> accepted{0};
  /// EWMA of the accept indicator, alpha = kEwmaAlpha; negative until
  /// the first attempt.
  std::atomic<double> ewma{-1.0};
};

/// Point-in-time copy of the whole health plane (see snapshot()).
struct HealthSnapshot {
  /// The walker's last published record plus the registry-derived
  /// fields.
  struct Walker : WalkerBlock {
    double best_flatness = 0.0;
    bool stalled = false;
    double seconds_since_improve = 0.0;
    /// Seconds since the latest configure() / round_trips; 0 until the
    /// first round trip.
    double round_trip_mean_s = 0.0;
    /// Oldest-first (sweeps, flatness) samples, at most kTrajectoryLen.
    std::vector<std::pair<std::int64_t, double>> trajectory;

    /// for_each_field over the record, then the derived scalars.
    template <typename Fn>
    void for_each_field(Fn&& fn) const {
      obs::for_each_field(static_cast<const WalkerBlock&>(*this), fn);
      fn(std::string_view("best_flatness"), best_flatness);
      fn(std::string_view("stalled"), stalled);
      fn(std::string_view("seconds_since_improve"), seconds_since_improve);
      fn(std::string_view("round_trip_mean_s"), round_trip_mean_s);
    }
  };
  bool active = false;
  std::string phase;
  double uptime_s = 0.0;
  double stall_seconds = 0.0;
  std::uint64_t checkpoint_generation = 0;
  int n_windows = 0;
  int walkers_per_window = 0;
  std::vector<Walker> walkers;
  /// Pair i = windows i <-> i+1: (attempted, accepted, ewma).
  struct Pair {
    std::uint64_t attempted = 0;
    std::uint64_t accepted = 0;
    double ewma = -1.0;
  };
  std::vector<Pair> pairs;
  int stalled_walkers = 0;
};

/// JSON arrays shared by GET /status and the bench --json health block:
/// every walker (all fields plus its flatness trajectory) and every
/// exchange pair.
[[nodiscard]] std::string walkers_json(const HealthSnapshot& snap);
[[nodiscard]] std::string exchange_pairs_json(const HealthSnapshot& snap);

class HealthRegistry {
 public:
  static constexpr double kEwmaAlpha = 0.1;
  /// Flatness must rise by at least this much to count as progress.
  static constexpr double kImproveEpsilon = 1e-6;

  HealthRegistry() = default;
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  /// (Re)build the cell block for a run; called by the REWL driver
  /// before walker threads start. `stall_seconds` <= 0 disables the
  /// watchdog. Safe against concurrent scrapes (readers hold the old
  /// block via shared_ptr until they finish).
  void configure(int n_ranks, int n_windows, int walkers_per_window,
                 double stall_seconds);

  /// True once configure() has run (cells exist).
  [[nodiscard]] bool active() const;

  /// Stable handle to rank's cell; the shared_ptr keeps the block alive
  /// across a concurrent reconfigure. Returns nullptr when inactive or
  /// out of range.
  [[nodiscard]] std::shared_ptr<WalkerHealthCell> walker_cell(int rank);

  /// Publish one walker record (drives the improvement clock and the
  /// trajectory ring). Prefer publish() over raw cell writes.
  void publish(const std::shared_ptr<WalkerHealthCell>& cell,
               const WalkerBlock& block);

  /// Record one exchange attempt on pair `lower_window` <-> +1.
  void record_exchange(int lower_window, bool accepted);

  /// Pipeline phase shown by /status ("pretrain", "rewl", ...).
  void set_phase(const std::string& phase);
  [[nodiscard]] std::string phase() const;

  void set_checkpoint_generation(std::uint64_t generation);

  /// Run the watchdog: recompute each walker's stall verdict, update the
  /// `health.stalled_walkers` gauge, WARN on fresh stalls. Returns the
  /// stalled count. Thread-safe; called by REWL rank 0 each round and by
  /// GET /healthz.
  int evaluate();

  [[nodiscard]] HealthSnapshot snapshot() const;

  /// One-line health digest for the progress heartbeat; empty when
  /// inactive.
  [[nodiscard]] std::string summary_line() const;

  /// Registry-clock seconds (steady, from construction).
  [[nodiscard]] double now_s() const { return clock_.seconds(); }

  /// Drop the cell block (test isolation).
  void reset();

  static HealthRegistry& global();

 private:
  struct CellBlock {
    std::vector<WalkerHealthCell> walkers;
    std::vector<PairHealthCell> pairs;
    int n_windows = 0;
    int walkers_per_window = 0;
    double stall_seconds = 0.0;
    /// Registry-clock time of the configure() that built this block.
    double configured_s = 0.0;
  };

  [[nodiscard]] std::shared_ptr<CellBlock> block() const;

  Stopwatch clock_;
  mutable Mutex mutex_;
  /// Read via block(); the cells inside the block are atomics and are
  /// accessed without the registry lock.
  std::shared_ptr<CellBlock> block_ DT_GUARDED_BY(mutex_);
  std::string phase_ DT_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> checkpoint_generation_{0};
};

}  // namespace dt::obs
