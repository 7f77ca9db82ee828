// Tests for the per-rank tracing/metrics subsystem (support/trace) and
// regression tests for the timing-attribution fixes that shipped with it:
//   - Chrome-trace export is well-formed and per-rank deterministic;
//   - driver breakdown buckets are tracer-derived and sum to the phase wall;
//   - NonblockingContext folds its duplicate communicator's stats back into
//     the parent (pipelined runs no longer report zero communication);
//   - IntervalTimer tolerates stop-without-start / double-stop;
//   - Xoshiro256::uniform_below(0) throws instead of silently returning 0.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/nonblocking.hpp"
#include "solvers/distributed_admm.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::support::MetricsRegistry;
using uoi::support::TraceCategory;
using uoi::support::Tracer;
using uoi::support::TraceScope;
using uoi::support::TraceTotals;

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

uoi::core::UoiLassoOptions small_options() {
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 6;
  options.n_estimation_bootstraps = 4;
  options.n_lambdas = 6;
  options.seed = 909;
  options.admm.eps_abs = 1e-7;
  options.admm.eps_rel = 1e-5;
  options.admm.max_iterations = 2000;
  return options;
}

uoi::data::RegressionDataset small_data() {
  uoi::data::RegressionSpec spec;
  spec.n_samples = 80;
  spec.n_features = 16;
  spec.support_size = 4;
  spec.noise_stddev = 0.3;
  spec.seed = 31;
  return uoi::data::make_regression(spec);
}

TEST(Trace, TotalsArithmetic) {
  TraceTotals a, b;
  a.of(TraceCategory::kCommunication) = {3, 1.5};
  b.of(TraceCategory::kCommunication) = {1, 0.5};
  b.of(TraceCategory::kDataIo) = {2, 0.25};
  a += b;
  EXPECT_EQ(a.of(TraceCategory::kCommunication).calls, 4u);
  EXPECT_DOUBLE_EQ(a.seconds(TraceCategory::kCommunication), 2.0);
  EXPECT_EQ(a.of(TraceCategory::kDataIo).calls, 2u);
  a -= b;
  EXPECT_EQ(a.of(TraceCategory::kCommunication).calls, 3u);
  EXPECT_DOUBLE_EQ(a.seconds(TraceCategory::kCommunication), 1.5);
  EXPECT_EQ(a.of(TraceCategory::kDataIo).calls, 0u);
}

TEST(Trace, ScopeAccumulatesTotalsAndMirrorsTimer) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  uoi::support::IntervalTimer mirror;
  {
    TraceScope span("unit-span", TraceCategory::kComputation, 3, &mirror);
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  }
  const TraceTotals totals = tracer.totals(3);
  EXPECT_EQ(totals.of(TraceCategory::kComputation).calls, 1u);
  EXPECT_GT(totals.seconds(TraceCategory::kComputation), 0.0);
  EXPECT_GT(mirror.total_seconds(), 0.0);
  EXPECT_FALSE(mirror.running());
  // Spans on rank 3 must not leak onto other ranks.
  EXPECT_EQ(tracer.totals(0).of(TraceCategory::kComputation).calls, 0u);
  tracer.clear();
  EXPECT_EQ(tracer.totals(3).of(TraceCategory::kComputation).calls, 0u);
}

TEST(Trace, EventsBufferedOnlyWhenCaptureEnabled) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(false);
  tracer.record("silent", TraceCategory::kCommunication, 0, 0.0, 1e-3);
  EXPECT_EQ(tracer.event_count(), 0u);
  // Totals accumulate regardless of capture.
  EXPECT_EQ(tracer.totals(0).of(TraceCategory::kCommunication).calls, 1u);
  tracer.set_capture_events(true);
  tracer.record("captured", TraceCategory::kCommunication, 0, 0.0, 1e-3);
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.set_capture_events(false);
  tracer.clear();
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  tracer.record("alpha", TraceCategory::kCommunication, 0, 0.001, 0.002);
  tracer.record("beta \"quoted\"\n", TraceCategory::kDataIo, 2, 0.003, 0.001);
  tracer.instant("marker", TraceCategory::kFault, 1);
  tracer.set_capture_events(false);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  tracer.clear();

  // A JSON array of complete ("ph":"X") events with pid = rank.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(count_occurrences(json, "{"), 3u);
  EXPECT_EQ(count_occurrences(json, "}"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"pid\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"tid\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"ts\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 3u);
  // Events are sorted by (rank, start): rank 0 first, rank 2 last.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_LT(json.find("\"pid\":0"), json.find("\"pid\":1"));
  EXPECT_LT(json.find("\"pid\":1"), json.find("\"pid\":2"));
  // The quote and newline in the name must be escaped.
  EXPECT_NE(json.find("beta \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"data-io\""), std::string::npos);
  // ts/dur are microseconds.
  EXPECT_NE(json.find("\"ts\":1000.000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000.000000"), std::string::npos);
}

TEST(Trace, DistributedRunYieldsDeterministicPerRankSequence) {
  const auto data = small_data();
  auto options = small_options();
  // Run-to-run trace identity only holds for deterministic schedules; work
  // stealing reorders spans by timing. Pin the policy so the test does not
  // depend on UOI_SCHED_POLICY.
  options.schedule = uoi::sched::SchedulePolicy::kCostLpt;
  auto& tracer = Tracer::instance();

  using Key = std::tuple<int, std::string, int>;
  const auto run_once = [&] {
    tracer.clear();
    tracer.set_capture_events(true);
    Cluster::run(2, [&](Comm& comm) {
      (void)uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options,
                                             {2, 1});
    });
    tracer.set_capture_events(false);
    std::vector<Key> sequence;
    for (const auto& event : tracer.events()) {
      sequence.emplace_back(event.rank, event.name,
                            static_cast<int>(event.category));
    }
    return sequence;
  };

  const auto first = run_once();
  const auto second = run_once();
  tracer.clear();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Trace, BreakdownBucketsSumToPhaseWall) {
  const auto data = small_data();
  const auto options = small_options();
  Tracer::instance().clear();
  Cluster::run(2, [&](Comm& comm) {
    uoi::support::Stopwatch watch;
    const auto result =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    const double wall = watch.seconds();
    const auto& b = result.breakdown;
    EXPECT_GE(b.computation_seconds, 0.0);
    EXPECT_GE(b.communication_seconds, 0.0);
    EXPECT_GE(b.distribution_seconds, 0.0);
    EXPECT_GE(b.data_io_seconds, 0.0);
    const double sum = b.computation_seconds + b.communication_seconds +
                       b.distribution_seconds + b.data_io_seconds;
    // Buckets are derived from the same phase: their sum must track the
    // wall time of the call to within 5% (plus slack for the stopwatch
    // bracketing overhead on very short runs).
    EXPECT_NEAR(sum, wall, 0.05 * wall + 0.005);
    EXPECT_GT(b.communication_seconds, 0.0);
  });
}

// Regression (pipelined-convergence attribution): before the fix, the
// pipelined check's allreduces ran on a duplicate communicator whose stats
// were dropped on destruction, so pipelined runs reported zero
// communication time. The duplicate's stats now fold into the parent.
TEST(TraceRegression, NonblockingDupStatsFoldIntoParent) {
  Cluster::run(2, [&](Comm& comm) {
    const auto before = comm.stats().of(uoi::sim::CommCategory::kAllreduce);
    {
      uoi::sim::NonblockingContext nb(comm);
      std::vector<double> value{1.0};
      auto request = nb.iallreduce(value, uoi::sim::ReduceOp::kSum);
      request.wait();
      EXPECT_DOUBLE_EQ(value[0], 2.0);
    }  // ~NonblockingContext folds the dup's accounting into `comm`.
    const auto after = comm.stats().of(uoi::sim::CommCategory::kAllreduce);
    EXPECT_GT(after.calls, before.calls);
    EXPECT_GT(after.seconds, before.seconds);
  });
}

TEST(TraceRegression, PipelinedDistributedRunReportsCommunication) {
  const auto data = small_data();
  auto options = small_options();
  options.admm.pipelined_convergence_check = true;
  Tracer::instance().clear();
  Cluster::run(2, [&](Comm& comm) {
    const auto result =
        uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
    EXPECT_GT(result.breakdown.communication_seconds, 0.0);
    // The dup's allreduce traffic is visible in the parent's stats too.
    EXPECT_GT(comm.stats().of(uoi::sim::CommCategory::kAllreduce).calls, 0u);
  });
}

// Regression (IntervalTimer): stop() without a matching start() used to
// accumulate garbage ("now minus stale last_start"); it is a no-op now.
TEST(TraceRegression, IntervalTimerStopWithoutStartIsNoOp) {
  uoi::support::IntervalTimer timer;
  timer.stop();
  EXPECT_DOUBLE_EQ(timer.total_seconds(), 0.0);
  EXPECT_FALSE(timer.running());
  timer.start();
  EXPECT_TRUE(timer.running());
  timer.stop();
  const double once = timer.total_seconds();
  timer.stop();  // double-stop must not add time
  EXPECT_DOUBLE_EQ(timer.total_seconds(), once);
  timer.clear();
  EXPECT_FALSE(timer.running());
  EXPECT_DOUBLE_EQ(timer.total_seconds(), 0.0);
}

TEST(TraceRegression, IntervalScopeBracketsTimer) {
  uoi::support::IntervalTimer timer;
  {
    uoi::support::IntervalScope scope(timer);
    EXPECT_TRUE(timer.running());
  }
  EXPECT_FALSE(timer.running());
  EXPECT_GE(timer.total_seconds(), 0.0);
}

// Regression (RNG): uniform_below(0) used to silently return 0, masking
// empty-range caller bugs; it must throw now.
TEST(TraceRegression, UniformBelowZeroThrows) {
  uoi::support::Xoshiro256 rng(17);
  EXPECT_THROW((void)rng.uniform_below(0), uoi::support::InvalidArgument);
  EXPECT_EQ(rng.uniform_below(1), 0u);
  for (int i = 0; i < 64; ++i) EXPECT_LT(rng.uniform_below(5), 5u);
}

TEST(Metrics, RegistryBasics) {
  auto& metrics = MetricsRegistry::instance();
  metrics.clear();
  EXPECT_DOUBLE_EQ(metrics.value(0, "missing"), 0.0);
  metrics.add(1, "counter", 2.0);
  metrics.add(1, "counter", 3.0);
  metrics.set(0, "gauge", 7.5);
  EXPECT_DOUBLE_EQ(metrics.value(1, "counter"), 5.0);
  EXPECT_DOUBLE_EQ(metrics.value(0, "gauge"), 7.5);

  const auto snapshot = metrics.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].rank, 0);
  EXPECT_EQ(snapshot[0].name, "gauge");
  EXPECT_EQ(snapshot[1].rank, 1);
  EXPECT_EQ(snapshot[1].name, "counter");

  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5.000000"), std::string::npos);
  metrics.clear();
  EXPECT_TRUE(metrics.snapshot().empty());
}

// Regression (JSON escaping): counter names and span names containing
// quotes, backslashes, or control characters used to produce malformed
// JSON documents. Everything now routes through support/json's escaper.
TEST(TraceRegression, MetricsToJsonEscapesSpecialCharacters) {
  auto& metrics = MetricsRegistry::instance();
  metrics.clear();
  metrics.set(0, "weird \"name\" with \\backslash\\ and \x01 ctrl", 1.0);
  const std::string json = metrics.to_json();
  metrics.clear();
  EXPECT_NE(
      json.find("weird \\\"name\\\" with \\\\backslash\\\\ and \\u0001 ctrl"),
      std::string::npos);
  // No raw control byte or unescaped quote-in-name survives.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceRegression, ChromeTraceEscapesControlCharacters) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  tracer.record("tab\there\x7f high \xc3\xa9",
                TraceCategory::kComputation, 0, 0.0, 1e-3);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.set_capture_events(false);
  tracer.clear();
  const std::string json = out.str();
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  // 0x7f is not a JSON control character and passes through; the UTF-8
  // bytes (negative as signed char) must not turn into spurious \uffffffXX escapes.
  EXPECT_NE(json.find("\x7f high \xc3\xa9"), std::string::npos);
  EXPECT_EQ(json.find("ffffff"), std::string::npos);
}

// Stress: spans recorded from many threads (with rank rebinding mid-flight)
// while another thread snapshots totals/events/histograms. Run under
// ASan/TSan in CI; the assertion here is that nothing tears and the final
// accounting matches exactly.
TEST(TraceStress, ConcurrentSpansRebindsAndSnapshots) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      (void)tracer.totals();
      (void)tracer.events();
      (void)tracer.all_histograms();
      (void)tracer.ranks();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        // Rebind the thread across two ranks mid-run, as Cluster::run does
        // when a thread is reused for another rank after a shrink.
        Tracer::set_thread_rank(2 * t + (i % 2));
        TraceScope span("stress", TraceCategory::kComputation);
        (void)span;
      }
      Tracer::set_thread_rank(0);
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  snapshotter.join();

  constexpr auto kTotal =
      static_cast<std::uint64_t>(kThreads) * kSpansPerThread;
  EXPECT_EQ(tracer.totals().of(TraceCategory::kComputation).calls, kTotal);
  EXPECT_EQ(tracer.event_count(), kTotal);
  EXPECT_EQ(tracer.histogram(TraceCategory::kComputation).count(), kTotal);
  // Each thread split its spans evenly across its two ranks.
  for (int r = 0; r < 2 * kThreads; ++r) {
    EXPECT_EQ(tracer.totals(r).of(TraceCategory::kComputation).calls,
              kSpansPerThread / 2)
        << "rank " << r;
  }
  tracer.set_capture_events(false);
  tracer.clear();
}

// ---- per-rank shards ----
// Durations are multiples of 1/8 so every sum below is exact in any order.

TEST(TraceShards, DenseAndSparseRanksKeepSeparateTotals) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  // Recorded sparse id first and dense ids descending: ranks() must sort.
  const std::vector<int> order{5000, 7, 6, 5, 4, 3, 2, 1, 0};
  for (const int rank : order) {
    const int spans = rank == 5000 ? 9 : rank + 1;
    for (int i = 0; i < spans; ++i) {
      tracer.record("span", TraceCategory::kCommunication, rank, 0.0, 0.125);
    }
  }
  const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7, 5000};
  EXPECT_EQ(tracer.ranks(), expected);
  for (const int rank : expected) {
    const int spans = rank == 5000 ? 9 : rank + 1;
    const auto entry = tracer.totals(rank).of(TraceCategory::kCommunication);
    EXPECT_EQ(entry.calls, static_cast<std::uint64_t>(spans)) << rank;
    EXPECT_EQ(entry.seconds, 0.125 * spans) << rank;
    EXPECT_EQ(tracer.histogram(rank, TraceCategory::kCommunication).count(),
              static_cast<std::uint64_t>(spans))
        << rank;
  }
  // Neighbours of the sparse id stay empty.
  EXPECT_EQ(tracer.totals(4999).of(TraceCategory::kCommunication).calls, 0u);
  EXPECT_EQ(tracer.totals(5001).of(TraceCategory::kCommunication).calls, 0u);
  tracer.clear();
}

TEST(TraceShards, AggregatesEqualSumsOverRanks) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  for (const int rank : {0, 3, 5000}) {
    for (int i = 0; i <= rank % 7; ++i) {
      tracer.record("c", TraceCategory::kComputation, rank, 0.0,
                    0.25 * (i + 1));
      tracer.record("m", TraceCategory::kCommunication, rank, 0.0, 0.125);
    }
  }
  TraceTotals summed;
  for (const auto& [rank, totals] : tracer.all_totals()) summed += totals;
  const TraceTotals all = tracer.totals();
  for (const auto category :
       {TraceCategory::kComputation, TraceCategory::kCommunication}) {
    EXPECT_EQ(all.of(category).calls, summed.of(category).calls);
    EXPECT_EQ(all.of(category).seconds, summed.of(category).seconds);
    std::uint64_t count = 0;
    double sum = 0.0;
    for (const int rank : tracer.ranks()) {
      count += tracer.histogram(rank, category).count();
      sum += tracer.histogram(rank, category).sum();
    }
    EXPECT_EQ(tracer.histogram(category).count(), count);
    EXPECT_EQ(tracer.histogram(category).sum(), sum);
    EXPECT_EQ(count, all.of(category).calls);
  }
  EXPECT_EQ(all.of(TraceCategory::kComputation).calls, 1u + 4u + 3u);
  tracer.clear();
}

TEST(TraceShards, ClearRacingRecordLeavesNoStaleRank) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_capture_events(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&tracer, &stop, t] {
      const int rank = t == 3 ? 5000 : t;
      while (!stop.load()) {
        tracer.record("race", TraceCategory::kComputation, rank, 0.0, 0.125);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    tracer.clear();
    // A listed rank always has data: clear() never leaves an empty entry.
    for (const int rank : tracer.ranks()) {
      EXPECT_GT(tracer.totals(rank).of(TraceCategory::kComputation).calls, 0u)
          << rank;
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  tracer.clear();
  EXPECT_TRUE(tracer.ranks().empty());
  EXPECT_EQ(tracer.totals().of(TraceCategory::kComputation).calls, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.record("after", TraceCategory::kComputation, 2, 0.0, 0.125);
  EXPECT_EQ(tracer.ranks(), std::vector<int>{2});
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.set_capture_events(false);
  tracer.clear();
}

TEST(TraceShards, OnlyRecordingRanksAppear) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.record("one", TraceCategory::kDataIo, 2, 0.0, 0.125);
  // Reads of ranks that never recorded return empty accounting and do not
  // make those ranks appear.
  EXPECT_EQ(tracer.totals(9).of(TraceCategory::kDataIo).calls, 0u);
  EXPECT_EQ(tracer.histogram(123456, TraceCategory::kDataIo).count(), 0u);
  EXPECT_EQ(tracer.ranks(), std::vector<int>{2});
  EXPECT_EQ(tracer.all_totals().size(), 1u);
  EXPECT_EQ(tracer.all_histograms().size(), 1u);
  tracer.clear();
}

TEST(Metrics, ClusterRunExportsCommAndSolverCounters) {
  const auto data = small_data();
  const auto options = small_options();
  auto& metrics = MetricsRegistry::instance();
  metrics.clear();
  Cluster::run(2, [&](Comm& comm) {
    (void)uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
  });
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_GT(metrics.value(rank, "admm.iterations"), 0.0) << rank;
    EXPECT_GT(metrics.value(rank, "admm.allreduce_calls"), 0.0) << rank;
    EXPECT_GE(metrics.value(rank, "admm.rho_updates"), 0.0) << rank;
    EXPECT_GT(metrics.value(rank, "comm.allreduce.calls"), 0.0) << rank;
    EXPECT_GT(metrics.value(rank, "comm.allreduce.seconds"), 0.0) << rank;
  }
  metrics.clear();
}

}  // namespace
