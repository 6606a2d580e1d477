// minicomm: an in-process message-passing runtime with MPI-like semantics.
//
// This is the repo's substitution for MPI (see DESIGN.md): ranks are
// threads of one process, each handed a Communicator. Point-to-point
// messages are typed byte buffers matched on (source, tag); collectives
// (barrier, broadcast, allreduce, allgather, gather) are built on p2p
// with rank 0 as the root, which is correct and amply fast at in-process
// scale. The REWL driver and the data-parallel trainer are written
// against this interface only, so porting to real MPI is mechanical.
//
// Semantics notes:
//  * send() is buffered and non-blocking (never deadlocks on unmatched
//    sends); recv() blocks until a matching message arrives.
//  * Message order is preserved per (source, destination, tag) pair.
//  * A Communicator is owned by exactly one thread; sharing one across
//    threads is a usage error.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::par {

namespace detail {

struct Message {
  int source = 0;
  int tag = 0;
  std::string payload;
};

struct Mailbox {
  Mutex mutex;
  CondVar cv;
  std::deque<Message> messages DT_GUARDED_BY(mutex);
};

struct Context {
  explicit Context(int size) : mailboxes(static_cast<std::size_t>(size)) {
    for (auto& mb : mailboxes) mb = std::make_unique<Mailbox>();
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  /// Set when any rank dies with an exception; pending recvs then throw
  /// instead of deadlocking the join.
  std::atomic<bool> aborted{false};
};

}  // namespace detail

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::Context> ctx, int rank, int size)
      : ctx_(std::move(ctx)), rank_(rank), size_(size) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  // ---- point to point ----

  void send_bytes(int dest, int tag, std::span<const std::byte> data);
  /// Blocks until a message from `source` with `tag` arrives; the
  /// payload is handed over, not copied.
  std::string recv_bytes(int source, int tag);

  template <class T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size() * sizeof(T)});
  }

  template <class T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  template <class T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = recv_bytes(source, tag);
    std::vector<T> out(bytes.size() / sizeof(T));
    // Zero-length messages are legal; memcpy(null, null, 0) is not.
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  template <class T>
  T recv_value(int source, int tag) {
    const auto v = recv<T>(source, tag);
    return v.at(0);
  }

  // ---- collectives (all ranks must participate) ----

  void barrier();

  /// Element-wise sum across ranks; every rank gets the result in place.
  /// Large float buffers (gradients) take the bandwidth-optimal ring
  /// path; everything else reduces through rank 0.
  void allreduce_sum(std::span<float> data);
  void allreduce_sum(std::span<double> data);

  /// Ring allreduce (reduce-scatter + allgather): each rank sends/receives
  /// 2(P-1)/P of the payload instead of the whole buffer twice. Exposed
  /// for tests and benchmarks; allreduce_sum dispatches to it
  /// automatically for large float buffers.
  void allreduce_sum_ring(std::span<float> data);
  [[nodiscard]] double allreduce_sum(double value);
  [[nodiscard]] std::int64_t allreduce_sum(std::int64_t value);
  [[nodiscard]] bool allreduce_and(bool value);
  [[nodiscard]] double allreduce_max(double value);

  /// Root's buffer is copied to all ranks (sizes must match on entry).
  template <class T>
  void broadcast(std::vector<T>& data, int root) {
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r)
        if (r != root) send<T>(r, kBcastTag, data);
    } else {
      data = recv<T>(root, kBcastTag);
    }
  }

  /// Every rank contributes one value; everyone receives all, rank-ordered.
  template <class T>
  std::vector<T> allgather(const T& value) {
    std::vector<T> all(static_cast<std::size_t>(size_));
    if (rank_ == 0) {
      all[0] = value;
      for (int r = 1; r < size_; ++r)
        all[static_cast<std::size_t>(r)] = recv_value<T>(r, kGatherTag);
      for (int r = 1; r < size_; ++r) send<T>(r, kGatherTag, all);
    } else {
      send_value(0, kGatherTag, value);
      all = recv<T>(0, kGatherTag);
    }
    return all;
  }

  /// Rank-ordered variable-length byte records at `root`; other ranks
  /// get an empty vector. Each record is copied once, by the send: the
  /// root's own and every received payload are moved into place.
  std::vector<std::string> gather(std::string record, int root);

 private:
  static constexpr int kBcastTag = -1;
  static constexpr int kGatherTag = -2;
  static constexpr int kBarrierTag = -3;
  static constexpr int kReduceTag = -4;

  std::shared_ptr<detail::Context> ctx_;
  int rank_;
  int size_;
};

/// Spawn `n_ranks` threads, each running `body` with its own
/// Communicator. Rethrows the first exception raised by any rank (after
/// joining all threads). This is minicomm's "mpirun".
void run_ranks(int n_ranks, const std::function<void(Communicator&)>& body);

}  // namespace dt::par
