#include "obs/health.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace dt::obs {

namespace {

template <typename T>
T from_telemetry(double value) {
  if constexpr (std::is_same_v<T, Flag>)
    return value != 0.0 ? Flag::kYes : Flag::kNo;
  else
    return static_cast<T>(value);
}

}  // namespace

void set_field(WalkerBlock& block, std::string_view name, double value) {
#define DT_WALKER_ASSIGN(type, field, init)      \
  if (name == #field) {                          \
    block.field = from_telemetry<type>(value);   \
    return;                                      \
  }
  DT_WALKER_FIELDS(DT_WALKER_ASSIGN)
#undef DT_WALKER_ASSIGN
  DT_CHECK_MSG(false, "unknown walker telemetry key '"
                          << name << "' (not in DT_WALKER_FIELDS)");
}

void WalkerHealthCell::store(const WalkerBlock& block) {
  const auto raw = std::bit_cast<std::array<std::uint64_t, kWords>>(block);
  for (std::size_t i = 0; i < kWords; ++i)
    words[i].store(raw[i], std::memory_order_relaxed);
}

WalkerBlock WalkerHealthCell::load() const {
  std::array<std::uint64_t, kWords> raw{};
  for (std::size_t i = 0; i < kWords; ++i)
    raw[i] = words[i].load(std::memory_order_relaxed);
  return std::bit_cast<WalkerBlock>(raw);
}

std::string walkers_json(const HealthSnapshot& snap) {
  std::string out = "[";
  for (const HealthSnapshot::Walker& w : snap.walkers) {
    if (out.size() > 1) out += ',';
    std::string trajectory = "[";
    for (const auto& [sweeps, flatness] : w.trajectory) {
      if (trajectory.size() > 1) trajectory += ',';
      trajectory += '[' + std::to_string(sweeps) + ',' +
                    json_number(flatness) + ']';
    }
    JsonWriter entry;
    w.for_each_field([&](std::string_view name, auto value) {
      entry.field(name, value);
    });
    out += entry.raw("flatness_trajectory", trajectory + ']').str();
  }
  return out + ']';
}

std::string exchange_pairs_json(const HealthSnapshot& snap) {
  std::string out = "[";
  for (std::size_t i = 0; i < snap.pairs.size(); ++i) {
    const HealthSnapshot::Pair& p = snap.pairs[i];
    if (i > 0) out += ',';
    JsonWriter pair;
    pair.field("pair", static_cast<std::int64_t>(i))
        .field("attempted", p.attempted)
        .field("accepted", p.accepted)
        .field("acceptance_ewma", p.ewma < 0.0 ? 0.0 : p.ewma);
    out += pair.str();
  }
  return out + ']';
}

void HealthRegistry::configure(int n_ranks, int n_windows,
                               int walkers_per_window, double stall_seconds) {
  DT_CHECK(n_ranks >= 1 && n_windows >= 1 && walkers_per_window >= 1);
  auto fresh = std::make_shared<CellBlock>();
  fresh->walkers = std::vector<WalkerHealthCell>(
      static_cast<std::size_t>(n_ranks));
  fresh->pairs = std::vector<PairHealthCell>(
      static_cast<std::size_t>(std::max(0, n_windows - 1)));
  fresh->n_windows = n_windows;
  fresh->walkers_per_window = walkers_per_window;
  fresh->stall_seconds = stall_seconds;
  fresh->configured_s = now_s();
  for (auto& cell : fresh->walkers) {
    cell.store(WalkerBlock{});
    cell.last_improve_s.store(fresh->configured_s, std::memory_order_relaxed);
  }
  MutexLock lock(mutex_);
  block_ = std::move(fresh);
}

bool HealthRegistry::active() const { return block() != nullptr; }

std::shared_ptr<HealthRegistry::CellBlock> HealthRegistry::block() const {
  MutexLock lock(mutex_);
  return block_;
}

std::shared_ptr<WalkerHealthCell> HealthRegistry::walker_cell(int rank) {
  auto blk = block();
  if (blk == nullptr || rank < 0 ||
      static_cast<std::size_t>(rank) >= blk->walkers.size())
    return nullptr;
  // Aliasing shared_ptr: the handle keeps the whole block alive, so a
  // concurrent reconfigure cannot pull the cell out from under a walker.
  return {blk, &blk->walkers[static_cast<std::size_t>(rank)]};
}

void HealthRegistry::publish(const std::shared_ptr<WalkerHealthCell>& cell,
                             const WalkerBlock& block) {
  if (cell == nullptr) return;
  WalkerHealthCell& c = *cell;

  // Improvement clock: a new ln f stage restarts the histogram, so the
  // stage transition itself is progress; within a stage, only a strictly
  // better flatness ratio resets the stall timer.
  const std::int64_t prev_stage = c.best_stage.load(std::memory_order_relaxed);
  const double prev_best = c.best_flatness.load(std::memory_order_relaxed);
  if (block.f_stage != prev_stage ||
      block.flatness > prev_best + kImproveEpsilon) {
    c.best_flatness.store(block.f_stage != prev_stage
                              ? block.flatness
                              : std::max(prev_best, block.flatness),
                          std::memory_order_relaxed);
    c.best_stage.store(block.f_stage, std::memory_order_relaxed);
    c.last_improve_s.store(now_s(), std::memory_order_relaxed);
  }
  c.store(block);

  // Trajectory ring: write the slot, then advance the head, so readers
  // that bound their scan by the head never see an unwritten slot.
  const std::uint64_t head =
      c.trajectory_head.load(std::memory_order_relaxed);
  auto& point = c.trajectory[head % WalkerHealthCell::kTrajectoryLen];
  point.flatness.store(block.flatness, std::memory_order_relaxed);
  point.sweeps.store(block.sweeps, std::memory_order_release);
  c.trajectory_head.store(head + 1, std::memory_order_release);
}

void HealthRegistry::record_exchange(int lower_window, bool accepted) {
  auto blk = block();
  if (blk == nullptr || lower_window < 0 ||
      static_cast<std::size_t>(lower_window) >= blk->pairs.size())
    return;
  PairHealthCell& pair = blk->pairs[static_cast<std::size_t>(lower_window)];
  pair.attempted.fetch_add(1, std::memory_order_relaxed);
  if (accepted) pair.accepted.fetch_add(1, std::memory_order_relaxed);
  const double x = accepted ? 1.0 : 0.0;
  double prev = pair.ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev < 0.0 ? x : prev + kEwmaAlpha * (x - prev);
  } while (!pair.ewma.compare_exchange_weak(prev, next,
                                            std::memory_order_relaxed));
}

void HealthRegistry::set_phase(const std::string& phase) {
  MutexLock lock(mutex_);
  phase_ = phase;
}

std::string HealthRegistry::phase() const {
  MutexLock lock(mutex_);
  return phase_;
}

void HealthRegistry::set_checkpoint_generation(std::uint64_t generation) {
  checkpoint_generation_.store(generation, std::memory_order_relaxed);
}

int HealthRegistry::evaluate() {
  auto blk = block();
  if (blk == nullptr) return 0;
  const double now = now_s();
  int stalled = 0;
  for (std::size_t rank = 0; rank < blk->walkers.size(); ++rank) {
    WalkerHealthCell& c = blk->walkers[rank];
    const WalkerBlock last = c.load();
    bool verdict = false;
    if (blk->stall_seconds > 0.0 && last.sweeps > 0 &&
        last.converged == Flag::kNo) {
      const double idle =
          now - c.last_improve_s.load(std::memory_order_relaxed);
      verdict = idle > blk->stall_seconds;
    }
    if (verdict) ++stalled;
    const bool was = c.stalled.exchange(verdict, std::memory_order_relaxed);
    if (verdict && !was) {
      DT_LOG_WARN << "health: walker " << rank << " (window "
                  << last.window << ") stalled -- flatness "
                  << last.flatness << " unimproved for "
                  << now - c.last_improve_s.load(std::memory_order_relaxed)
                  << " s (budget " << blk->stall_seconds << " s)";
    }
  }
  MetricsRegistry::global().gauge("health.stalled_walkers")
      .set(static_cast<double>(stalled));
  return stalled;
}

HealthSnapshot HealthRegistry::snapshot() const {
  HealthSnapshot snap;
  snap.phase = phase();
  snap.uptime_s = now_s();
  snap.checkpoint_generation =
      checkpoint_generation_.load(std::memory_order_relaxed);
  auto blk = block();
  if (blk == nullptr) return snap;
  snap.active = true;
  snap.stall_seconds = blk->stall_seconds;
  snap.n_windows = blk->n_windows;
  snap.walkers_per_window = blk->walkers_per_window;
  const double now = now_s();

  snap.walkers.reserve(blk->walkers.size());
  for (std::size_t rank = 0; rank < blk->walkers.size(); ++rank) {
    const WalkerHealthCell& c = blk->walkers[rank];
    HealthSnapshot::Walker w;
    static_cast<WalkerBlock&>(w) = c.load();
    w.rank = static_cast<std::int64_t>(rank);  // the cell is the identity
    w.best_flatness = c.best_flatness.load(std::memory_order_relaxed);
    w.stalled = c.stalled.load(std::memory_order_relaxed);
    w.seconds_since_improve =
        now - c.last_improve_s.load(std::memory_order_relaxed);
    w.round_trip_mean_s =
        w.round_trips == 0 ? 0.0
                           : (now - blk->configured_s) /
                                 static_cast<double>(w.round_trips);

    const std::uint64_t head =
        c.trajectory_head.load(std::memory_order_acquire);
    const std::uint64_t len =
        std::min<std::uint64_t>(head, WalkerHealthCell::kTrajectoryLen);
    w.trajectory.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t k = head - len; k < head; ++k) {
      const auto& point =
          c.trajectory[k % WalkerHealthCell::kTrajectoryLen];
      const std::int64_t sweeps =
          point.sweeps.load(std::memory_order_acquire);
      if (sweeps < 0) continue;  // ring slot overwritten mid-scan
      w.trajectory.emplace_back(
          sweeps, point.flatness.load(std::memory_order_relaxed));
    }
    if (w.stalled) ++snap.stalled_walkers;
    snap.walkers.push_back(std::move(w));
  }

  snap.pairs.reserve(blk->pairs.size());
  for (const PairHealthCell& pair : blk->pairs) {
    HealthSnapshot::Pair p;
    p.attempted = pair.attempted.load(std::memory_order_relaxed);
    p.accepted = pair.accepted.load(std::memory_order_relaxed);
    p.ewma = pair.ewma.load(std::memory_order_relaxed);
    snap.pairs.push_back(p);
  }
  return snap;
}

std::string HealthRegistry::summary_line() const {
  const HealthSnapshot snap = snapshot();
  if (!snap.active || snap.walkers.empty()) return {};
  double min_flatness = 1e300;
  std::uint64_t round_trips = 0;
  int converged = 0;
  for (const auto& w : snap.walkers) {
    min_flatness = std::min(min_flatness, w.flatness);
    round_trips += w.round_trips;
    if (w.converged == Flag::kYes) ++converged;
  }
  std::ostringstream os;
  os << "health: " << converged << "/" << snap.walkers.size()
     << " walkers converged, min flatness " << min_flatness
     << ", round trips " << round_trips;
  if (!snap.pairs.empty()) {
    os << ", exch acc";
    for (std::size_t i = 0; i < snap.pairs.size(); ++i)
      os << (i == 0 ? " " : "/")
         << (snap.pairs[i].ewma < 0.0 ? 0.0 : snap.pairs[i].ewma);
  }
  if (snap.stalled_walkers > 0)
    os << ", STALLED " << snap.stalled_walkers;
  return os.str();
}

void HealthRegistry::reset() {
  MutexLock lock(mutex_);
  block_.reset();
  phase_.clear();
  checkpoint_generation_.store(0, std::memory_order_relaxed);
}

HealthRegistry& HealthRegistry::global() {
  static HealthRegistry registry;
  return registry;
}

}  // namespace dt::obs
