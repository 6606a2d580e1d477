#include "par/minicomm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "common/error.hpp"

namespace dt::par {
namespace {

TEST(Minicomm, RankAndSize) {
  std::atomic<int> seen{0};
  run_ranks(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    ++seen;
  });
  EXPECT_EQ(seen.load(), 4);
}

TEST(Minicomm, PointToPointDelivers) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload = {1.5, 2.5, 3.5};
      comm.send<double>(1, 7, payload);
    } else {
      const auto got = comm.recv<double>(0, 7);
      EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

TEST(Minicomm, MessageOrderPreservedPerTag) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Minicomm, TagsAreMatchedSelectively) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 100);
      comm.send_value(1, 2, 200);
    } else {
      // Receive in reverse tag order: matching must skip the tag-1 message.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Minicomm, BarrierSynchronizes) {
  std::atomic<int> counter{0};
  run_ranks(4, [&](Communicator& comm) {
    ++counter;
    comm.barrier();
    // All increments happened before any rank proceeds.
    EXPECT_EQ(counter.load(), 4);
    comm.barrier();
  });
}

TEST(Minicomm, AllreduceSumScalar) {
  run_ranks(5, [](Communicator& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(total, 0 + 1 + 2 + 3 + 4);
    const std::int64_t itotal =
        comm.allreduce_sum(static_cast<std::int64_t>(comm.rank() + 1));
    EXPECT_EQ(itotal, 15);
  });
}

TEST(Minicomm, AllreduceSumVector) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<float> data = {static_cast<float>(comm.rank()), 1.0f};
    comm.allreduce_sum(std::span<float>(data.data(), data.size()));
    EXPECT_EQ(data[0], 3.0f);  // 0+1+2
    EXPECT_EQ(data[1], 3.0f);
  });
}

TEST(Minicomm, AllreduceAndMax) {
  run_ranks(4, [](Communicator& comm) {
    EXPECT_FALSE(comm.allreduce_and(comm.rank() != 2));
    EXPECT_TRUE(comm.allreduce_and(true));
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     3.0);
  });
}

TEST(Minicomm, Broadcast) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 1) data = {7, 8, 9};
    comm.broadcast(data, 1);
    EXPECT_EQ(data, (std::vector<int>{7, 8, 9}));
  });
}

TEST(Minicomm, Allgather) {
  run_ranks(4, [](Communicator& comm) {
    const auto all = comm.allgather(comm.rank() * 10);
    EXPECT_EQ(all, (std::vector<int>{0, 10, 20, 30}));
  });
}

TEST(Minicomm, GatherVariableLength) {
  run_ranks(3, [](Communicator& comm) {
    std::string mine(static_cast<std::size_t>(comm.rank() + 1),
                     static_cast<char>('a' + comm.rank()));
    const auto all = comm.gather(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 3u);
      EXPECT_EQ(all[0], "a");
      EXPECT_EQ(all[1], "bb");
      EXPECT_EQ(all[2], "ccc");
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Minicomm, SingleRankDegenerateCollectives) {
  run_ranks(1, [](Communicator& comm) {
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(2.5), 2.5);
    EXPECT_TRUE(comm.allreduce_and(true));
    std::vector<int> data = {1};
    comm.broadcast(data, 0);
    EXPECT_EQ(comm.allgather(9), std::vector<int>{9});
  });
}

TEST(Minicomm, RingAllreduceMatchesCentral) {
  for (const int ranks : {2, 3, 4, 5}) {
    for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
      run_ranks(ranks, [&](Communicator& comm) {
        std::vector<float> ring(n), central(n);
        for (std::size_t i = 0; i < n; ++i) {
          const float v = static_cast<float>(comm.rank() + 1) *
                          static_cast<float>(i % 13);
          ring[i] = v;
          central[i] = v;
        }
        comm.allreduce_sum_ring(std::span<float>(ring.data(), n));
        // Expected: sum over ranks of (r+1)*(i%13).
        float rank_sum = 0;
        for (int r = 0; r < ranks; ++r)
          rank_sum += static_cast<float>(r + 1);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_FLOAT_EQ(ring[i], rank_sum * static_cast<float>(i % 13))
              << "ranks=" << ranks << " n=" << n << " i=" << i;
      });
    }
  }
}

TEST(Minicomm, RingAllreduceIdenticalAcrossRanks) {
  std::vector<std::vector<float>> results(4);
  run_ranks(4, [&](Communicator& comm) {
    std::vector<float> data(5000);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = 0.001f * static_cast<float>(comm.rank()) +
                1e-7f * static_cast<float>(i);
    comm.allreduce_sum(std::span<float>(data.data(), data.size()));
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (int r = 1; r < 4; ++r)
    EXPECT_EQ(results[0], results[static_cast<std::size_t>(r)]);
}

TEST(Minicomm, ExceptionInOneRankPropagates) {
  EXPECT_THROW(
      run_ranks(3,
                [](Communicator& comm) {
                  if (comm.rank() == 1) throw Error("rank 1 died");
                  // Other ranks block on a message that never comes; the
                  // abort flag must wake them instead of deadlocking.
                  if (comm.rank() == 0) (void)comm.recv<int>(2, 99);
                }),
      Error);
}

TEST(Minicomm, SendToInvalidRankThrows) {
  EXPECT_THROW(run_ranks(2,
                         [](Communicator& comm) {
                           if (comm.rank() == 0) comm.send_value(5, 0, 1);
                         }),
               Error);
}

TEST(Minicomm, ManyRanksStress) {
  // Ring pass-around with 12 ranks on 2 cores: exercises oversubscription.
  run_ranks(12, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value(next, 0, comm.rank());
    const int got = comm.recv_value<int>(prev, 0);
    EXPECT_EQ(got, prev);
    const double sum = comm.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(sum, 12.0);
  });
}

}  // namespace
}  // namespace dt::par
