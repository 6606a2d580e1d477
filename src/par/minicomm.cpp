#include "par/minicomm.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <thread>

#include "common/error.hpp"

namespace dt::par {

void Communicator::send_bytes(int dest, int tag,
                              std::span<const std::byte> data) {
  DT_CHECK_MSG(dest >= 0 && dest < size_, "send to invalid rank " << dest);
  detail::Mailbox& mb = *ctx_->mailboxes[static_cast<std::size_t>(dest)];
  {
    MutexLock lock(mb.mutex);
    mb.messages.push_back(detail::Message{
        rank_, tag,
        std::string(reinterpret_cast<const char*>(data.data()),
                    data.size())});
  }
  mb.cv.notify_all();
}

std::string Communicator::recv_bytes(int source, int tag) {
  DT_CHECK_MSG(source >= 0 && source < size_,
               "recv from invalid rank " << source);
  detail::Mailbox& mb = *ctx_->mailboxes[static_cast<std::size_t>(rank_)];
  MutexLock lock(mb.mutex);
  for (;;) {
    if (ctx_->aborted.load(std::memory_order_relaxed))
      throw Error("minicomm: peer rank aborted");
    const auto it = std::find_if(
        mb.messages.begin(), mb.messages.end(),
        [&](const detail::Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it != mb.messages.end()) {
      std::string payload = std::move(it->payload);
      mb.messages.erase(it);
      return payload;
    }
    // Bounded wait: the abort flag (set by a dying peer) must be
    // rechecked even if the matching notify was consumed elsewhere.
    mb.cv.wait_for(mb.mutex, std::chrono::milliseconds(50));
  }
}

std::vector<std::string> Communicator::gather(std::string record,
                                              int root) {
  std::vector<std::string> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size_));
    out[static_cast<std::size_t>(root)] = std::move(record);
    for (int r = 0; r < size_; ++r)
      if (r != root)
        out[static_cast<std::size_t>(r)] = recv_bytes(r, kGatherTag);
  } else {
    send<char>(root, kGatherTag, record);
  }
  return out;
}

void Communicator::barrier() {
  // Two-phase central barrier: everyone checks in with rank 0, rank 0
  // releases everyone. O(P) messages; fine at in-process scale.
  if (rank_ == 0) {
    for (int r = 1; r < size_; ++r) (void)recv_value<int>(r, kBarrierTag);
    for (int r = 1; r < size_; ++r) send_value(r, kBarrierTag, 0);
  } else {
    send_value(0, kBarrierTag, 0);
    (void)recv_value<int>(0, kBarrierTag);
  }
}

namespace {

template <class T>
void allreduce_sum_impl(Communicator& comm, std::span<T> data) {
  const int rank = comm.rank();
  const int size = comm.size();
  constexpr int kTag = -4;
  if (rank == 0) {
    std::vector<T> acc(data.begin(), data.end());
    for (int r = 1; r < size; ++r) {
      const auto part = comm.recv<T>(r, kTag);
      DT_CHECK(part.size() == acc.size());
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
    }
    std::copy(acc.begin(), acc.end(), data.begin());
    for (int r = 1; r < size; ++r)
      comm.send<T>(r, kTag, std::span<const T>(acc.data(), acc.size()));
  } else {
    comm.send<T>(0, kTag, std::span<const T>(data.data(), data.size()));
    const auto result = comm.recv<T>(0, kTag);
    DT_CHECK(result.size() == data.size());
    std::copy(result.begin(), result.end(), data.begin());
  }
}

}  // namespace

void Communicator::allreduce_sum(std::span<float> data) {
  // Gradient-sized buffers benefit from the ring's bandwidth optimality;
  // small payloads are latency-bound and the central reduce is simpler.
  constexpr std::size_t kRingThreshold = 4096;
  if (size_ > 2 && data.size() >= kRingThreshold) {
    allreduce_sum_ring(data);
  } else {
    allreduce_sum_impl(*this, data);
  }
}

void Communicator::allreduce_sum_ring(std::span<float> data) {
  if (size_ == 1) return;
  constexpr int kTag = -5;
  const auto p = static_cast<std::size_t>(size_);
  const std::size_t n = data.size();
  // Chunk c covers [offsets[c], offsets[c+1]).
  std::vector<std::size_t> offsets(p + 1, 0);
  for (std::size_t c = 0; c <= p; ++c) offsets[c] = c * n / p;

  const int next = (rank_ + 1) % size_;
  const int prev = (rank_ + size_ - 1) % size_;
  const auto r = static_cast<std::size_t>(rank_);

  // Reduce-scatter: after P-1 steps rank i owns the full sum of chunk
  // (i+1) mod P.
  for (std::size_t step = 0; step + 1 < p; ++step) {
    const std::size_t send_chunk = (r + p - step) % p;
    const std::size_t recv_chunk = (r + p - step - 1) % p;
    send<float>(next, kTag,
                data.subspan(offsets[send_chunk],
                             offsets[send_chunk + 1] - offsets[send_chunk]));
    const auto incoming = recv<float>(prev, kTag);
    float* dst = data.data() + offsets[recv_chunk];
    for (std::size_t i = 0; i < incoming.size(); ++i) dst[i] += incoming[i];
  }
  // Allgather: circulate the finished chunks.
  for (std::size_t step = 0; step + 1 < p; ++step) {
    const std::size_t send_chunk = (r + 1 + p - step) % p;
    const std::size_t recv_chunk = (r + p - step) % p;
    send<float>(next, kTag,
                data.subspan(offsets[send_chunk],
                             offsets[send_chunk + 1] - offsets[send_chunk]));
    const auto incoming = recv<float>(prev, kTag);
    std::copy(incoming.begin(), incoming.end(),
              data.begin() + static_cast<std::ptrdiff_t>(offsets[recv_chunk]));
  }
}

void Communicator::allreduce_sum(std::span<double> data) {
  allreduce_sum_impl(*this, data);
}

double Communicator::allreduce_sum(double value) {
  allreduce_sum(std::span<double>(&value, 1));
  return value;
}

std::int64_t Communicator::allreduce_sum(std::int64_t value) {
  std::array<std::int64_t, 1> buf{value};
  allreduce_sum_impl<std::int64_t>(*this, buf);
  return buf[0];
}

bool Communicator::allreduce_and(bool value) {
  const std::int64_t sum = allreduce_sum(value ? std::int64_t{1} : 0);
  return sum == size_;
}

double Communicator::allreduce_max(double value) {
  // max(a, b) over ranks via gather-broadcast on rank 0.
  const auto all = allgather(value);
  return *std::max_element(all.begin(), all.end());
}

void run_ranks(int n_ranks, const std::function<void(Communicator&)>& body) {
  DT_CHECK_MSG(n_ranks >= 1, "run_ranks needs at least one rank");
  auto ctx = std::make_shared<detail::Context>(n_ranks);

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n_ranks));
  threads.reserve(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(ctx, r, n_ranks);
      try {
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        ctx->aborted.store(true, std::memory_order_relaxed);
        for (auto& mb : ctx->mailboxes) mb->cv.notify_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace dt::par
