#include "core/decode_plane.hpp"

#include <chrono>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace dt::core {

namespace {

/// Steady-clock seconds (lint wallclock-discipline: monotonic only).
double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DecodePlane::DecodePlane(std::shared_ptr<nn::Vae> vae)
    : DecodePlane(std::move(vae), Options{}) {}

DecodePlane::DecodePlane(std::shared_ptr<nn::Vae> vae, Options options)
    : vae_(std::move(vae)), options_(options) {
  DT_CHECK(vae_ != nullptr);
  DT_CHECK(options_.window_us >= 0);
  auto& metrics = obs::MetricsRegistry::global();
  m_requests_ = &metrics.counter("decode_plane.requests");
  m_batches_ = &metrics.counter("decode_plane.batches");
  m_rows_ = &metrics.counter("decode_plane.rows");
  m_coalesced_ = &metrics.counter("decode_plane.coalesced");
  m_fill_x1000_ = &metrics.gauge("decode_plane.fill_fraction_x1000");
  m_attached_ = &metrics.gauge("decode_plane.attached");
  // Per-request decode-wait, log10(microseconds): 1 us .. 1 s.
  m_wait_log10_us_ = &metrics.histogram("decode_plane.wait_log10_us", 0.0,
                                        6.0, 36);
}

DecodePlane::~DecodePlane() {
  MutexLock lock(mutex_);
  DT_CHECK_MSG(attached_ == 0 && pending_ == 0 && !serving_,
               "DecodePlane destroyed with walkers still attached");
}

int DecodePlane::attach() {
  MutexLock lock(mutex_);
  int id = -1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]->active) {
      id = static_cast<int>(i);
      break;
    }
  }
  if (id < 0) {
    slots_.push_back(std::make_unique<Slot>());
    id = static_cast<int>(slots_.size() - 1);
  }
  *slots_[static_cast<std::size_t>(id)] = Slot{};
  slots_[static_cast<std::size_t>(id)]->active = true;
  ++attached_;
  m_attached_->set(static_cast<double>(attached_));
  return id;
}

void DecodePlane::detach(int slot) {
  MutexLock lock(mutex_);
  DT_CHECK(slot >= 0 && static_cast<std::size_t>(slot) < slots_.size());
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  DT_CHECK_MSG(s.active && !s.pending && !s.in_flight,
               "detach() with an outstanding request (cancel first)");
  s = Slot{};
  --attached_;
  m_attached_->set(static_cast<double>(attached_));
  // The early-drain threshold dropped; a leader waiting for this walker
  // should re-evaluate.
  cv_.notify_all();
}

void DecodePlane::submit(int slot,
                         const std::array<std::uint32_t, 2>& latent_key,
                         std::uint64_t first_draw, std::int32_t rows,
                         std::span<const float> condition, float* out) {
  DT_CHECK(rows >= 1 && out != nullptr);
  DT_CHECK_MSG(static_cast<std::int32_t>(condition.size()) ==
                   vae_->options().condition_dim,
               "submit(): condition size must equal the VAE condition_dim");
  MutexLock lock(mutex_);
  DT_CHECK(slot >= 0 && static_cast<std::size_t>(slot) < slots_.size());
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  DT_CHECK_MSG(s.active, "submit() on a detached slot");
  DT_CHECK_MSG(!s.pending && !s.in_flight && !s.done,
               "submit() with a request already outstanding");
  s.key = latent_key;
  s.first_draw = first_draw;
  s.rows = rows;
  s.condition = condition.data();
  s.condition_size = condition.size();
  s.out = out;
  s.pending = true;
  ++pending_;
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::instrumentation_active()) m_requests_->add();
  // Wake a leader parked on the adaptive window: the queue may now be
  // full enough to drain early.
  cv_.notify_all();
}

double DecodePlane::wait(int slot) {
  const double t0 = mono_seconds();
  {
    MutexLock lock(mutex_);
    DT_CHECK(slot >= 0 && static_cast<std::size_t>(slot) < slots_.size());
    Slot& s = *slots_[static_cast<std::size_t>(slot)];
    DT_CHECK_MSG(s.active, "wait() on a detached slot");
    DT_CHECK_MSG(s.pending || s.in_flight || s.done,
                 "wait() without a submitted request");
    while (!s.done) {
      if (!serving_) {
        // Become the leader. Our own request is pending (it cannot be
        // in_flight: only a leader moves requests to in_flight and
        // there is none), so the drain below always serves it.
        serving_ = true;
        run_leader();
        serving_ = false;
        cv_.notify_all();
      } else {
        cv_.wait(mutex_);
      }
    }
    s.done = false;  // consume the completion
  }
  const double waited = mono_seconds() - t0;
  if (obs::instrumentation_active())
    m_wait_log10_us_->observe(std::log10(std::max(waited * 1e6, 1.0)));
  return waited;
}

void DecodePlane::cancel(int slot) {
  MutexLock lock(mutex_);
  DT_CHECK(slot >= 0 && static_cast<std::size_t>(slot) < slots_.size());
  Slot& s = *slots_[static_cast<std::size_t>(slot)];
  if (!s.active) return;
  if (s.pending) {
    s.pending = false;
    --pending_;
    return;
  }
  // In flight: the leader is decoding into s.out right now; wait for the
  // batch to complete, then discard the (stale) result.
  while (s.in_flight) cv_.wait(mutex_);
  s.done = false;
}

void DecodePlane::refresh_weights(std::istream& weights) {
  MutexLock lock(mutex_);
  DT_CHECK_MSG(!serving_ && pending_ == 0,
               "refresh_weights() with requests pending or in flight -- "
               "quiesce the plane first (see header contract)");
  vae_->load(weights);
}

void DecodePlane::run_leader() {
  // Adaptive batching window: drain immediately once every attached
  // walker has a request queued; otherwise wait up to window_us for
  // stragglers. Deadline on the monotonic clock.
  if (options_.window_us > 0 && pending_ < attached_) {
    const double deadline =
        mono_seconds() + 1e-6 * static_cast<double>(options_.window_us);
    while (pending_ < attached_) {
      const double left = deadline - mono_seconds();
      if (left <= 0.0) break;
      cv_.wait_for(mutex_, std::chrono::duration<double>(left));
    }
  }

  // Drain: snapshot every pending request into the leader batch.
  batch_.clear();
  total_rows_ = 0;
  for (auto& sp : slots_) {
    Slot& s = *sp;
    if (!s.pending) continue;
    s.pending = false;
    s.in_flight = true;
    batch_.push_back(&s);
    total_rows_ += static_cast<std::size_t>(s.rows);
  }
  pending_ -= static_cast<int>(batch_.size());
  DT_CHECK(!batch_.empty());  // at least the leader's own request

  // The batch slots are in_flight: submit/cancel/detach cannot touch
  // them until we mark them done, so the decode needs no lock.
  mutex_.unlock();
  serve_batch();
  mutex_.lock();

  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  stat_rows_.fetch_add(total_rows_, std::memory_order_relaxed);
  if (batch_.size() > 1)
    stat_coalesced_.fetch_add(batch_.size(), std::memory_order_relaxed);
  const double fill =
      attached_ > 0
          ? static_cast<double>(batch_.size()) / static_cast<double>(attached_)
          : 0.0;
  stat_fill_.store(fill, std::memory_order_relaxed);
  if (obs::instrumentation_active()) {
    m_batches_->add();
    m_rows_->add(total_rows_);
    if (batch_.size() > 1) m_coalesced_->add(batch_.size());
    m_fill_x1000_->set(1000.0 * fill);
  }

  for (Slot* s : batch_) {
    s->in_flight = false;
    s->done = true;
  }
  cv_.notify_all();
}

void DecodePlane::serve_batch() {
  const auto latent = static_cast<std::size_t>(vae_->latent_dim());
  const auto cond_dim =
      static_cast<std::size_t>(vae_->options().condition_dim);
  const std::size_t in_dim = latent + cond_dim;
  const auto row_floats = static_cast<std::size_t>(vae_->input_dim());

  // Regenerate each request's latents exactly as the walker would have:
  // seek the derived stream to the request's first draw and draw
  // rows * latent normals sequentially (each consumes a fixed draw
  // count, so sequential generation lands every row at its ordinal's
  // absolute window -- see vae_proposal.hpp "stream discipline").
  zin_.resize(total_rows_ * in_dim);
  std::size_t row = 0;
  for (const Slot* s : batch_) {
    latent_rng_.set_key(s->key);
    latent_rng_.seek(s->first_draw);
    for (std::int32_t r = 0; r < s->rows; ++r, ++row) {
      float* zrow = &zin_[row * in_dim];
      for (std::size_t l = 0; l < latent; ++l)
        zrow[l] = static_cast<float>(normal01(latent_rng_));
      if (cond_dim > 0)
        std::memcpy(zrow + latent, s->condition,
                    cond_dim * sizeof(float));
    }
  }

  // One fused decode over every walker's rows, then scatter.
  probs_scratch_.resize(total_rows_ * row_floats);
  vae_->decode_probs_rows(zin_, static_cast<std::int64_t>(total_rows_),
                          probs_scratch_.data());
  row = 0;
  for (const Slot* s : batch_) {
    std::memcpy(s->out, &probs_scratch_[row * row_floats],
                static_cast<std::size_t>(s->rows) * row_floats *
                    sizeof(float));
    row += static_cast<std::size_t>(s->rows);
  }
}

DecodePlane::Stats DecodePlane::stats() const {
  Stats out;
  out.requests = stat_requests_.load(std::memory_order_relaxed);
  out.batches = stat_batches_.load(std::memory_order_relaxed);
  out.rows = stat_rows_.load(std::memory_order_relaxed);
  out.coalesced = stat_coalesced_.load(std::memory_order_relaxed);
  out.last_fill_fraction = stat_fill_.load(std::memory_order_relaxed);
  return out;
}

int DecodePlane::attached() const {
  MutexLock lock(mutex_);
  return attached_;
}

}  // namespace dt::core
