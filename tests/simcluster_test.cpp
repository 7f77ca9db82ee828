// Tests for the uoi::sim SPMD runtime: collectives against serial
// references, communicator splits, one-sided windows, statistics, stress
// of the thread backend's spin-then-park barrier, and latency injection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "perfmodel/emulation.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/comm.hpp"
#include "simcluster/window.hpp"
#include "support/error.hpp"

namespace {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::FaultPlan;
using uoi::sim::RankFailedError;
using uoi::sim::ReduceOp;
using uoi::sim::Window;

class ClusterParam : public ::testing::TestWithParam<int> {};

TEST_P(ClusterParam, BarrierSynchronizesPhases) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  Cluster::run(p, [&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    if (arrived.load() != p) violated.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(ClusterParam, AllreduceSum) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
    comm.allreduce(data, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(data[0], p * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(data[1], static_cast<double>(p));
  });
}

TEST_P(ClusterParam, AllreduceMinMax) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    std::vector<double> lo{static_cast<double>(comm.rank())};
    comm.allreduce(lo, ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    std::vector<double> hi{static_cast<double>(comm.rank())};
    comm.allreduce(hi, ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(hi[0], static_cast<double>(p - 1));
  });
}

TEST_P(ClusterParam, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    Cluster::run(p, [&](Comm& comm) {
      std::vector<double> data(3, comm.rank() == root ? 42.0 : 0.0);
      comm.bcast(data, root);
      for (const double v : data) EXPECT_DOUBLE_EQ(v, 42.0);
    });
  }
}

TEST_P(ClusterParam, ReduceToRootOnly) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    std::vector<double> data{1.0};
    comm.reduce(data, ReduceOp::kSum, 0);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(data[0], static_cast<double>(p));
    } else {
      EXPECT_DOUBLE_EQ(data[0], 1.0);  // untouched off-root
    }
  });
}

TEST_P(ClusterParam, GatherAndAllgather) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank()),
                                   static_cast<double>(comm.rank()) + 0.5};
    std::vector<double> all(2 * static_cast<std::size_t>(p), -1.0);
    comm.allgather(mine, all);
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(all[2 * r], static_cast<double>(r));
      EXPECT_DOUBLE_EQ(all[2 * r + 1], static_cast<double>(r) + 0.5);
    }
    std::vector<double> rooted(2 * static_cast<std::size_t>(p), -1.0);
    comm.gather(mine, rooted, p - 1);
    if (comm.rank() == p - 1) {
      EXPECT_DOUBLE_EQ(rooted[0], 0.0);
      EXPECT_DOUBLE_EQ(rooted[2 * (p - 1)], static_cast<double>(p - 1));
    }
  });
}

TEST_P(ClusterParam, ScatterSlices) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    std::vector<double> send;
    if (comm.rank() == 0) {
      send.resize(static_cast<std::size_t>(p) * 2);
      std::iota(send.begin(), send.end(), 0.0);
    }
    std::vector<double> recv(2, -1.0);
    comm.scatter(send, recv, 0);
    EXPECT_DOUBLE_EQ(recv[0], comm.rank() * 2.0);
    EXPECT_DOUBLE_EQ(recv[1], comm.rank() * 2.0 + 1.0);
  });
}

TEST_P(ClusterParam, AllAgree) {
  const int p = GetParam();
  Cluster::run(p, [&](Comm& comm) {
    EXPECT_TRUE(comm.all_agree(true));
    EXPECT_FALSE(comm.all_agree(comm.rank() != 0));
    EXPECT_TRUE(comm.all_agree(comm.rank() >= 0));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ClusterParam,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Cluster, SplitFormsCorrectGroups) {
  Cluster::run(6, [&](Comm& comm) {
    // Two groups of 3: color = rank / 3.
    Comm sub = comm.split(comm.rank() / 3, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() % 3);
    // Group-local reduction stays inside the group.
    std::vector<double> data{static_cast<double>(comm.rank())};
    sub.allreduce(data, ReduceOp::kSum);
    const double expect = comm.rank() < 3 ? 0.0 + 1 + 2 : 3.0 + 4 + 5;
    EXPECT_DOUBLE_EQ(data[0], expect);
  });
}

TEST(Cluster, SplitHonorsKeyOrdering) {
  Cluster::run(4, [&](Comm& comm) {
    // Reverse ordering within one group: key = -rank.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - comm.rank());
  });
}

TEST(Cluster, NestedSplits) {
  Cluster::run(8, [&](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    std::vector<double> one{1.0};
    quarter.allreduce(one, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(one[0], 2.0);
  });
}

TEST(Cluster, ExceptionPropagatesAfterJoin) {
  EXPECT_THROW(
      Cluster::run(2,
                   [&](Comm& comm) {
                     comm.barrier();
                     throw std::runtime_error("rank failure");
                   }),
      std::runtime_error);
}

TEST(Window, PutGetAcrossRanks) {
  Cluster::run(4, [&](Comm& comm) {
    std::vector<double> local(4, static_cast<double>(comm.rank()));
    Window win(comm, local);
    win.fence();
    // Everyone writes its rank into slot `rank` of rank 0's buffer.
    const std::vector<double> value{static_cast<double>(comm.rank()) + 10.0};
    win.put(0, static_cast<std::size_t>(comm.rank()), value);
    win.fence();
    if (comm.rank() == 0) {
      for (int r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(local[static_cast<std::size_t>(r)], r + 10.0);
      }
    }
    // Everyone reads rank 3's buffer.
    std::vector<double> fetched(4, -1.0);
    win.get(3, 0, fetched);
    win.fence();
    for (const double v : fetched) {
      EXPECT_TRUE(v == 3.0 || v == 13.0);  // slot 3 was overwritten on rank 0 only
    }
  });
}

TEST(Window, AccumulateAddsAtomically) {
  Cluster::run(8, [&](Comm& comm) {
    std::vector<double> local(1, 0.0);
    Window win(comm, local);
    win.fence();
    const std::vector<double> one{1.0};
    for (int i = 0; i < 50; ++i) win.accumulate_add(0, 0, one);
    win.fence();
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(local[0], 400.0);
    }
  });
}

TEST(Window, SizesPerRankDiffer) {
  Cluster::run(3, [&](Comm& comm) {
    std::vector<double> local(static_cast<std::size_t>(comm.rank()) + 1, 1.0);
    Window win(comm, local);
    win.fence();
    EXPECT_EQ(win.size_at(0), 1u);
    EXPECT_EQ(win.size_at(1), 2u);
    EXPECT_EQ(win.size_at(2), 3u);
    EXPECT_EQ(win.local().size(), static_cast<std::size_t>(comm.rank()) + 1);
    win.fence();
  });
}

TEST(Window, OutOfRangeGetThrows) {
  Cluster::run(2, [&](Comm& comm) {
    std::vector<double> local(2, 0.0);
    Window win(comm, local);
    win.fence();
    std::vector<double> big(5);
    bool threw = false;
    try {
      win.get(0, 0, big);
    } catch (const uoi::support::DimensionMismatch&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    win.fence();
  });
}

TEST(Stats, TracksCallsBytesAndCategories) {
  auto stats = Cluster::run_collect_stats(2, [&](Comm& comm) {
    std::vector<double> data(10, 1.0);
    comm.allreduce(data, ReduceOp::kSum);
    comm.allreduce(data, ReduceOp::kSum);
    comm.bcast(data, 0);
    comm.barrier();
  });
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kAllreduce).calls, 2u);
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kAllreduce).bytes,
              2u * 10u * sizeof(double));
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kBcast).calls, 1u);
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kBarrier).calls, 1u);
    EXPECT_GE(s.collective_seconds(), 0.0);
  }
}

TEST(Stats, OneSidedAccounting) {
  auto stats = Cluster::run_collect_stats(2, [&](Comm& comm) {
    std::vector<double> local(8, 0.0);
    Window win(comm, local);
    win.fence();
    std::vector<double> buf(8);
    win.get(1 - comm.rank(), 0, buf);
    win.fence();
  });
  for (const auto& s : stats) {
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kOneSided).calls, 1u);
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kOneSided).bytes,
              8u * sizeof(double));
  }
}

TEST(Cluster, SingleRankRunsInline) {
  int calls = 0;
  Cluster::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    std::vector<double> v{3.0};
    comm.allreduce(v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// ---- staged reductions reject mismatched lengths on every rank ----

class MismatchParam : public ::testing::TestWithParam<int> {};

TEST_P(MismatchParam, AllreduceLengthMismatchRaisesOnEveryRank) {
  const int p = GetParam();
  std::atomic<int> raised{0};
  Cluster::run(p, [&](Comm& comm) {
    // The last rank stages a shorter buffer than its peers.
    std::vector<double> data(comm.rank() == p - 1 ? 2 : 8, 1.0);
    try {
      comm.allreduce(data, ReduceOp::kSum);
    } catch (const uoi::support::DimensionMismatch&) {
      raised.fetch_add(1);
    }
    std::vector<std::uint64_t> counts(comm.rank() == 0 ? 1 : 3, 1);
    try {
      comm.allreduce(std::span<std::uint64_t>(counts), ReduceOp::kSum);
    } catch (const uoi::support::DimensionMismatch&) {
      raised.fetch_add(1);
    }
    // Every rank skipped the closing barrier together, so the
    // communicator is still in step.
    double one = 1.0;
    comm.allreduce(std::span<double>(&one, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(one, static_cast<double>(p));
  });
  EXPECT_EQ(raised.load(), 2 * p);
}

TEST_P(MismatchParam, ReduceLengthMismatchRaisesOnEveryRank) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::atomic<int> raised{0};
    Cluster::run(p, [&](Comm& comm) {
      // A non-root rank stages a longer buffer, then the root a shorter one.
      const int odd_rank = (root + 1) % p;
      std::vector<double> longer(comm.rank() == odd_rank ? 9 : 4, 1.0);
      try {
        comm.reduce(longer, ReduceOp::kSum, root);
      } catch (const uoi::support::DimensionMismatch&) {
        raised.fetch_add(1);
      }
      std::vector<double> shorter(comm.rank() == root ? 1 : 4, 1.0);
      try {
        comm.reduce(shorter, ReduceOp::kSum, root);
      } catch (const uoi::support::DimensionMismatch&) {
        raised.fetch_add(1);
      }
      comm.barrier();
    });
    EXPECT_EQ(raised.load(), 2 * p) << "root " << root;
  }
}

TEST_P(MismatchParam, GatherLengthMismatchRaisesWithoutHanging) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::atomic<int> raised{0};
    std::atomic<int> root_raised{0};
    Cluster::run(p, [&](Comm& comm) {
      // A non-root rank contributes one element too many: every rank sees
      // the staged sizes and raises.
      const int odd_rank = (root + 1) % p;
      const std::vector<double> send(comm.rank() == odd_rank ? 4 : 3, 1.0);
      std::vector<double> recv(3 * static_cast<std::size_t>(p));
      try {
        comm.gather(send, recv, root);
      } catch (const uoi::support::DimensionMismatch&) {
        raised.fetch_add(1);
      }
      // A root recv buffer of the wrong size only the root can see; it
      // raises after the closing barrier, its peers return normally.
      const std::vector<double> even(3, 1.0);
      std::vector<double> short_recv(comm.rank() == root ? 2 : 0);
      try {
        comm.gather(even, short_recv, root);
      } catch (const uoi::support::DimensionMismatch&) {
        root_raised.fetch_add(comm.rank() == root ? 1 : 100);
      }
      double one = 1.0;
      comm.allreduce(std::span<double>(&one, 1), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(one, static_cast<double>(p));
    });
    EXPECT_EQ(raised.load(), p) << "root " << root;
    EXPECT_EQ(root_raised.load(), 1) << "root " << root;
  }
}

TEST_P(MismatchParam, AllgatherLengthMismatchRaisesWithoutHanging) {
  const int p = GetParam();
  std::atomic<int> raised{0};
  std::atomic<int> recv_raised{0};
  Cluster::run(p, [&](Comm& comm) {
    const auto ranks = static_cast<std::size_t>(p);
    // The last rank contributes fewer elements (its own recv buffer is
    // consistent with that): every rank raises.
    const std::size_t n = comm.rank() == p - 1 ? 2 : 5;
    const std::vector<double> send(n, 1.0);
    std::vector<double> recv(n * ranks);
    try {
      comm.allgather(send, recv);
    } catch (const uoi::support::DimensionMismatch&) {
      raised.fetch_add(1);
    }
    const std::vector<std::size_t> counts(comm.rank() == 0 ? 1 : 2, 7);
    std::vector<std::size_t> all(counts.size() * ranks);
    try {
      comm.allgather(std::span<const std::size_t>(counts),
                     std::span<std::size_t>(all));
    } catch (const uoi::support::DimensionMismatch&) {
      raised.fetch_add(1);
    }
    // Rank 0 alone passes a short recv buffer. It used to raise before the
    // first barrier and leave its peers waiting; now it raises after the
    // closing one.
    const std::vector<double> even(3, 1.0);
    std::vector<double> out(comm.rank() == 0 ? 1 : 3 * ranks);
    try {
      comm.allgather(even, out);
    } catch (const uoi::support::DimensionMismatch&) {
      recv_raised.fetch_add(comm.rank() == 0 ? 1 : 100);
    }
    double one = 1.0;
    comm.allreduce(std::span<double>(&one, 1), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(one, static_cast<double>(p));
  });
  EXPECT_EQ(raised.load(), 2 * p);
  EXPECT_EQ(recv_raised.load(), 1);
}

TEST_P(MismatchParam, ScatterLengthMismatchRaisesOnEveryRank) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::atomic<int> raised{0};
    Cluster::run(p, [&](Comm& comm) {
      // Only the root's send buffer is wrong; it used to raise before the
      // first barrier on the root alone.
      const std::size_t n = 3;
      std::vector<double> send(
          comm.rank() == root ? n * static_cast<std::size_t>(p) - 1 : 0, 1.0);
      std::vector<double> recv(n);
      try {
        comm.scatter(send, recv, root);
      } catch (const uoi::support::DimensionMismatch&) {
        raised.fetch_add(1);
      }
      comm.barrier();
    });
    EXPECT_EQ(raised.load(), p) << "root " << root;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MismatchParam, ::testing::Values(2, 4));

// ---- barrier stress: spin-then-park under seeded random skew ----

/// Seeded per-rank skew: mostly none, sometimes a busy wait inside the
/// barrier's spin window, rarely a sleep long enough to make peers park.
void random_delay(std::mt19937& rng) {
  const unsigned draw = rng() % 64;
  if (draw == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  } else if (draw < 8) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(rng() % 20);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
}

/// Rank r's contribution to element i of allreduce g; not exactly
/// representable, so any change in reduction order changes the bits.
double contribution(int rank, int g, int i) {
  return 1.0 / static_cast<double>(1 + rank + 3 * g + 7 * i);
}

/// `steps` back-to-back collectives on `p` ranks — three allreduces, then
/// one barrier, repeated — each sum checked bitwise against the staged
/// algorithm's rank-order reduction.
void barrier_stress(int p, int steps) {
  constexpr int kWidth = 3;
  std::atomic<int> mismatches{0};
  Cluster::run(p, [&](Comm& comm) {
    std::mt19937 rng(1234u + static_cast<unsigned>(comm.rank()));
    std::vector<double> data(kWidth);
    for (int g = 0; g < steps; ++g) {
      random_delay(rng);
      if (g % 4 == 3) {
        comm.barrier();
        continue;
      }
      for (int i = 0; i < kWidth; ++i) {
        data[static_cast<std::size_t>(i)] = contribution(comm.rank(), g, i);
      }
      comm.allreduce(data, ReduceOp::kSum);
      for (int i = 0; i < kWidth; ++i) {
        double expected = contribution(0, g, i);
        for (int r = 1; r < p; ++r) expected += contribution(r, g, i);
        const double got = data[static_cast<std::size_t>(i)];
        if (std::memcmp(&got, &expected, sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BarrierStress, TenThousandGenerationsFourRanks) {
  barrier_stress(4, 10000);
}

TEST(BarrierStress, TenThousandGenerationsSixteenRanksOversubscribed) {
  barrier_stress(16, 10000);
}

/// What a rank saw when it raised RankFailedError: the loop step it was at
/// and the alive set.
struct RaiseRecord {
  int step = -1;
  std::vector<int> alive;
};

TEST(BarrierStress, KillAtCollectiveNRaisesTogetherOnEverySurvivor) {
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  constexpr int kKillAt = 500;
  auto plan = std::make_shared<FaultPlan>();
  plan->kills.push_back({kVictim, kKillAt});
  std::vector<RaiseRecord> records(kRanks);
  Cluster::run(kRanks, [&](Comm& comm) {
    comm.set_fault_plan(plan);
    std::mt19937 rng(99u + static_cast<unsigned>(comm.rank()));
    int step = 0;
    try {
      for (; step < 2 * kKillAt; ++step) {
        random_delay(rng);
        double one = 1.0;
        comm.allreduce(std::span<double>(&one, 1), ReduceOp::kSum);
      }
    } catch (const RankFailedError&) {
      auto& record = records[static_cast<std::size_t>(comm.rank())];
      record.step = step;
      record.alive = comm.alive_ranks();
    }
  });
  // The victim unwound with RankKilledError; every survivor raised at the
  // victim's collective and saw the same failure state.
  const std::vector<int> survivors{0, 1, 3};
  for (const int r : survivors) {
    const auto& record = records[static_cast<std::size_t>(r)];
    EXPECT_EQ(record.step, kKillAt) << "rank " << r;
    EXPECT_EQ(record.alive, survivors) << "rank " << r;
  }
  EXPECT_EQ(records[kVictim].step, -1);
}

TEST(BarrierStress, RevokeWhileSpinningRaisesTogetherOnEveryRank) {
  constexpr int kRanks = 4;
  constexpr int kRevokeAt = 300;
  std::vector<RaiseRecord> records(kRanks);
  Cluster::run(kRanks, [&](Comm& comm) {
    int step = 0;
    try {
      for (; step < 2 * kRevokeAt; ++step) {
        if (comm.rank() == 0 && step == kRevokeAt) {
          // Let the peers arrive and start spinning, then revoke; rank 0's
          // own collective below then raises on entry.
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(10);
          while (std::chrono::steady_clock::now() < until) {
          }
          comm.revoke();
        }
        double one = 1.0;
        comm.allreduce(std::span<double>(&one, 1), ReduceOp::kSum);
      }
    } catch (const RankFailedError&) {
      auto& record = records[static_cast<std::size_t>(comm.rank())];
      record.step = step;
      record.alive = comm.alive_ranks();
    }
  });
  const std::vector<int> everyone{0, 1, 2, 3};
  for (int r = 0; r < kRanks; ++r) {
    const auto& record = records[static_cast<std::size_t>(r)];
    EXPECT_EQ(record.step, kRevokeAt) << "rank " << r;
    EXPECT_EQ(record.alive, everyone) << "rank " << r;
  }
}

}  // namespace

namespace emulation_tests {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

TEST(LatencyEmulation, InjectedDelayShowsUpInStats) {
  auto stats = Cluster::run_collect_stats(2, [&](Comm& comm) {
    // A flat 2 ms per allreduce regardless of size.
    comm.set_latency_injector([](uoi::sim::CommCategory category,
                                 std::uint64_t, int) {
      return category == uoi::sim::CommCategory::kAllreduce ? 2e-3 : 0.0;
    });
    std::vector<double> v(8, 1.0);
    for (int i = 0; i < 5; ++i) comm.allreduce(v, ReduceOp::kSum);
  });
  for (const auto& s : stats) {
    EXPECT_GE(s.of(uoi::sim::CommCategory::kAllreduce).seconds, 5 * 2e-3);
  }
}

TEST(LatencyEmulation, ResultsAreUnaffected) {
  Cluster::run(3, [&](Comm& comm) {
    comm.set_latency_injector(uoi::perf::make_profile_injector(
        uoi::perf::knl_profile(), /*emulated_cores=*/4352,
        /*time_scale=*/1e-3));
    std::vector<double> v{static_cast<double>(comm.rank())};
    comm.allreduce(v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
  });
}

TEST(LatencyEmulation, ProfileInjectorScalesWithEmulatedCores) {
  const auto injector_small = uoi::perf::make_profile_injector(
      uoi::perf::knl_profile(), 68, 1.0);
  const auto injector_large = uoi::perf::make_profile_injector(
      uoi::perf::knl_profile(), 139264, 1.0);
  const double small = injector_small(uoi::sim::CommCategory::kAllreduce,
                                      160000, 8);
  const double large = injector_large(uoi::sim::CommCategory::kAllreduce,
                                      160000, 8);
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
}

}  // namespace emulation_tests
