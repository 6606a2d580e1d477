// Cross-walker batched decode plane (see DESIGN.md "Cross-walker decode
// plane").
//
// Every REWL walker refills its decode-ahead buffer with a K-row decoder
// GEMM against the SAME frozen weights. Run independently per walker
// those refills fragment the machine's GEMM throughput W ways; the plane
// coalesces them: walkers submit refill requests (latent stream key,
// first ordinal, row count, condition vector, output buffer) to a
// lock-guarded queue, and ONE thread -- the leader -- drains the queue
// under an adaptive batching window and executes a single fused
// (sum K)-row decode, scattering per-walker probability rows back and
// waking the requesters.
//
// Leader rule: cooperative leader election among blocked requesters, not
// a dedicated server thread. The first walker to block in wait() while
// no batch is being served becomes the leader, serves everything queued
// (always including its own request), and steps down. Rationale over a
// server thread: no idle thread to manage when the plane is off or the
// phase is VAE-free, natural backpressure (decode runs at the walkers'
// aggregate demand), and a liveness guarantee that needs no protocol --
// any waiter can always serve its own request, so no walker ever depends
// on another thread making progress (a rank parked inside a minicomm
// collective can never stall the plane).
//
// Adaptive window: a fresh leader drains immediately once every attached
// walker has a request queued (the common steady state with prefetch);
// otherwise it waits up to window_us for stragglers before serving a
// partial batch. window_us only bounds the wait -- correctness never
// depends on it.
//
// Determinism: each request's latents are a pure function of (key,
// ordinal) -- the leader seeks the walker's derived Philox stream to the
// request's first draw index and regenerates exactly the draws the
// walker itself would have drawn -- and the fused GEMM accumulates every
// output row in a fixed order independent of which rows share the batch
// (row-tile blocking, k never split). Decoded rows are therefore bitwise
// identical to the walker's own decode_probs_batch for ANY walker count,
// batch composition, thread count, and interleaving (pinned in
// test_decode_plane).
//
// Weight refresh contract: refresh_weights() may only run while no
// request is pending or in flight. Framework order after a mid-run
// ddp_fit: every rank cancels its prefetch + invalidates its decode
// buffers, barrier, rank 0 refreshes the plane weights, barrier,
// sampling resumes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "nn/vae.hpp"
#include "obs/metrics.hpp"

namespace dt::core {

class DecodePlane {
 public:
  struct Options {
    /// Max microseconds a leader waits for stragglers before serving a
    /// partial batch. 0 = serve whatever is queued immediately.
    std::int64_t window_us = 200;
  };

  /// Always-on coalescing counters (independent of telemetry gating) so
  /// benches can report rows/GEMM and batch fill without sinks attached.
  struct Stats {
    std::uint64_t requests = 0;   ///< refill requests submitted
    std::uint64_t batches = 0;    ///< fused decode GEMMs executed
    std::uint64_t rows = 0;       ///< total rows decoded
    std::uint64_t coalesced = 0;  ///< requests served in multi-walker batches
    double last_fill_fraction = 0.0;  ///< walkers in last batch / attached
  };

  /// `vae` is the plane's serving replica: its weights must be bitwise
  /// identical to every attached walker's own decoder (the framework
  /// hands both the same pretrained byte stream and refreshes them
  /// together). Only the leader touches it, one batch at a time.
  explicit DecodePlane(std::shared_ptr<nn::Vae> vae);
  DecodePlane(std::shared_ptr<nn::Vae> vae, Options options);
  ~DecodePlane();

  DecodePlane(const DecodePlane&) = delete;
  DecodePlane& operator=(const DecodePlane&) = delete;

  /// Register a walker; returns its slot id for submit/wait/cancel.
  [[nodiscard]] int attach();
  /// Unregister. The slot must have no outstanding request (cancel
  /// first).
  void detach(int slot);

  /// Enqueue a refill request: decode `rows` latents whose derived
  /// Philox stream has key `latent_key` starting at absolute draw index
  /// `first_draw`, each row conditioned on `condition`, writing rows *
  /// n_sites * n_species probabilities to `out`. Non-blocking; at most
  /// one outstanding request per slot. `condition` and `out` must stay
  /// valid until wait() or cancel() returns.
  void submit(int slot, const std::array<std::uint32_t, 2>& latent_key,
              std::uint64_t first_draw, std::int32_t rows,
              std::span<const float> condition, float* out);

  /// Block until this slot's request completes, serving as leader when
  /// no one else is (see header). Returns seconds spent in here (the
  /// walker's decode-wait, including any time spent leading).
  double wait(int slot);

  /// Drop this slot's outstanding request if it has not been served yet;
  /// if it is in flight, block until the batch completes and discard the
  /// result. No-op without an outstanding request.
  void cancel(int slot);

  /// Reload the serving replica's weights. Caller must have quiesced the
  /// plane: no pending or in-flight requests (see header contract).
  void refresh_weights(std::istream& weights);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] int attached() const;
  [[nodiscard]] std::int64_t window_us() const { return options_.window_us; }
  [[nodiscard]] nn::Vae& vae() { return *vae_; }

 private:
  struct Slot {
    bool active = false;     // attached walker
    bool pending = false;    // queued, not yet drained by a leader
    bool in_flight = false;  // part of the batch being served
    bool done = false;       // served, result in out; wait() consumes
    std::array<std::uint32_t, 2> key{};
    std::uint64_t first_draw = 0;
    std::int32_t rows = 0;
    const float* condition = nullptr;
    std::size_t condition_size = 0;
    float* out = nullptr;
  };

  /// Leader body: adaptive-window wait, drain, fused decode, scatter,
  /// wake. Entered with mutex_ held and serving_ true; drops the lock
  /// around the decode itself -- the manual unlock/relock around
  /// serve_batch() is exactly the pattern thread-safety analysis cannot
  /// express (precedent: HttpServer::accept_loop), so the function opts
  /// out and documents its locking discipline here instead.
  void run_leader() DT_NO_THREAD_SAFETY_ANALYSIS;

  /// Fused decode of the drained batch (batch_, total_rows_): regenerate
  /// each request's latents, one decode GEMM over all rows, scatter back
  /// to the requesters' buffers. Runs WITHOUT the queue lock (the batch
  /// slots are in_flight, so nothing else touches them) -- pure
  /// compute + member scratch, no allocation after warm-up, no locks
  /// (hotlisted, scripts/lint/hotlist.txt).
  void serve_batch();

  std::shared_ptr<nn::Vae> vae_;
  Options options_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<std::unique_ptr<Slot>> slots_ DT_GUARDED_BY(mutex_);
  int attached_ DT_GUARDED_BY(mutex_) = 0;
  int pending_ DT_GUARDED_BY(mutex_) = 0;
  bool serving_ DT_GUARDED_BY(mutex_) = false;

  // Leader-only scratch (guarded by serving_, not the mutex: exactly one
  // leader exists at a time and leadership hand-off goes through the
  // mutex, which orders the accesses).
  std::vector<Slot*> batch_;
  std::size_t total_rows_ = 0;
  std::vector<float> zin_;           // total_rows x (latent + cond)
  std::vector<float> probs_scratch_; // total_rows x n_sites x n_species
  Philox4x32 latent_rng_;

  // Always-on stats (relaxed: monotonic counters, read by benches).
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_rows_{0};
  std::atomic<std::uint64_t> stat_coalesced_{0};
  std::atomic<double> stat_fill_{0.0};

  // Registry metrics (adds gated on obs::instrumentation_active()).
  obs::Counter* m_requests_;
  obs::Counter* m_batches_;
  obs::Counter* m_rows_;
  obs::Counter* m_coalesced_;
  obs::Gauge* m_fill_x1000_;
  obs::Gauge* m_attached_;
  obs::FixedHistogram* m_wait_log10_us_;
};

}  // namespace dt::core
