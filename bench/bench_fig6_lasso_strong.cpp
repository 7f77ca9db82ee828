// Fig. 6 — UoI_LASSO strong scaling (1 TB fixed, 17,408 -> 139,264 cores).
//
// Paper shape: computation drops with cores and goes *below* the ideal
// trend at 139,264 cores (AVX-512 + cache effects once the per-core panel
// is small); communication grows but the ADMM converges faster beyond
// 69,632 cores.
//
// Functional validation: fixed dataset, growing rank counts; measured
// compute must shrink and communication grow.

#include <cstdio>

#include <cmath>

#include "bench_common.hpp"
#include "core/uoi_lasso_distributed.hpp"
#include "data/synthetic_regression.hpp"
#include "perfmodel/lasso_cost.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/distributed_admm.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

int main() {
  uoi::bench::FigureTrace trace("fig6_lasso_strong");
  uoi::bench::BenchReport telemetry("fig6_lasso_strong");
  telemetry.config("rank_sweep", "2,4,8,16")
      .config("n_samples", 1536)
      .config("n_features", 48)
      .config("b1", 5)
      .config("b2", 3)
      .config("q", 6);
  std::printf("== Fig. 6: UoI_LASSO strong scaling (1 TB fixed) ==\n");

  uoi::bench::banner("modeled at paper scale");
  const uoi::perf::UoiLassoCostModel model;
  auto table = uoi::bench::breakdown_table("cores");
  double first_compute = 0.0;
  std::uint64_t first_cores = 0;
  for (const auto& point : uoi::perf::table1_lasso_strong_scaling()) {
    uoi::perf::UoiLassoWorkload w;
    w.data_bytes = point.data_gb << 30;
    const auto b = model.run(w, point.cores);
    if (first_cores == 0) {
      first_cores = point.cores;
      first_compute = b.computation;
    }
    const double ideal =
        first_compute * static_cast<double>(first_cores) /
        static_cast<double>(point.cores);
    auto row = uoi::bench::breakdown_row(
        uoi::support::format_count(point.cores), b);
    row.back() = uoi::support::format_fixed(b.computation / ideal, 2) +
                 "x ideal";
    table.add_row(row);
  }
  // Re-label the last column for this bench.
  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\npaper shape: compute/ideal ratio dips below 1.0 at the largest "
      "core count\n(superlinear: AVX-512 + reduced DRAM traffic on small "
      "panels).\n");

  uoi::bench::banner("functional strong scaling (fixed 1,536 x 48 dataset)");
  uoi::data::RegressionSpec spec;
  spec.n_samples = 1536;
  spec.n_features = 48;
  spec.support_size = 6;
  const auto data = uoi::data::make_regression(spec);
  uoi::core::UoiLassoOptions options;
  options.n_selection_bootstraps = 5;
  options.n_estimation_bootstraps = 3;
  options.n_lambdas = 6;

  uoi::support::Table func(
      {"ranks", "compute (rank 0)", "comm (rank 0)", "allreduce calls"});
  for (const int ranks : {2, 4, 8, 16}) {
    uoi::core::UoiDistributedBreakdown breakdown;
    auto stats =
        uoi::sim::Cluster::run_collect_stats(ranks, [&](uoi::sim::Comm& comm) {
          const auto result = uoi::core::uoi_lasso_distributed(
              comm, data.x, data.y, options);
          if (comm.rank() == 0) breakdown = result.breakdown;
        });
    func.add_row(
        {std::to_string(ranks),
         uoi::support::format_seconds(breakdown.computation_seconds),
         uoi::support::format_seconds(breakdown.communication_seconds),
         uoi::support::format_count(
             stats[0].of(uoi::sim::CommCategory::kAllreduce).calls)});
  }
  std::printf("%s\n", func.to_text().c_str());

  // -- communication-avoiding consensus ADMM (fused reductions + k-step
  // lazy consensus) --
  //
  // One distributed LASSO fit at 8 ranks, three configurations:
  //   unfused k=1 : classic loop, separate p-length + 3-double reductions
  //   fused   k=1 : one (p+3)-double reduction per iteration (bitwise
  //                 identical trajectory)
  //   fused   k=4 : consensus + stopping test every 4th iteration only
  // Gates: fusion must cut reduction rounds >= 40%, k=4 must cut payload
  // bytes >= 30%, and the k=4 solution must stay within 1e-6 of k=1. The
  // gated runs start from rho0 = 1, the regime the lazy steps were tuned
  // in; two ungated rows repeat k=1 / k=4 at the default data-scaled rho0,
  // where the k=1 loop already converges in tens of iterations.
  uoi::bench::banner("communication-avoiding consensus ADMM (8 ranks)");
  struct CommAvoidPoint {
    uoi::linalg::Vector beta;
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t rounds = 0;
    std::uint64_t lazy = 0;
    std::size_t iterations = 0;
  };
  const auto run_fit = [&](bool fused, std::size_t k, double rho) {
    CommAvoidPoint point;
    uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
      uoi::solvers::AdmmOptions admm;
      admm.rho = rho;
      admm.fused_residual_reduction = fused;
      admm.consensus_interval = k;
      admm.eps_abs = 1e-8;
      admm.eps_rel = 1e-6;
      admm.max_iterations = 20000;
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto local_x = data.x.row_block(begin, end - begin);
      const auto local_y =
          std::span<const double>(data.y).subspan(begin, end - begin);
      const auto fit = uoi::solvers::distributed_lasso_admm(
          comm, local_x, local_y, /*lambda=*/0.1, admm);
      if (comm.rank() == 0) {
        point.beta = fit.beta;
        point.calls = fit.allreduce_calls;
        point.bytes = fit.allreduce_bytes;
        point.rounds = fit.consensus_rounds;
        point.lazy = fit.lazy_iterations;
        point.iterations = fit.iterations;
      }
    });
    return point;
  };
  const auto unfused1 = run_fit(false, 1, 1.0);
  const auto fused1 = run_fit(true, 1, 1.0);
  const auto fused4 = run_fit(true, 4, 1.0);
  const auto scaled1 = run_fit(true, 1, 0.0);
  const auto scaled4 = run_fit(true, 4, 0.0);

  uoi::support::Table ca({"config", "iters", "reduction rounds",
                          "payload bytes", "lazy iters"});
  const auto add_ca = [&](const char* name, const CommAvoidPoint& pt) {
    ca.add_row({name, std::to_string(pt.iterations),
                uoi::support::format_count(pt.calls),
                uoi::support::format_count(pt.bytes),
                uoi::support::format_count(pt.lazy)});
  };
  add_ca("unfused k=1, rho0 1", unfused1);
  add_ca("fused   k=1, rho0 1", fused1);
  add_ca("fused   k=4, rho0 1", fused4);
  add_ca("fused   k=1, rho0 trace/p", scaled1);
  add_ca("fused   k=4, rho0 trace/p", scaled4);
  std::printf("%s\n", ca.to_text().c_str());

  double beta_diff_fused = 0.0;   // fused k=1 vs unfused k=1: must be 0
  double beta_diff_lazy = 0.0;    // fused k=4 vs fused k=1: <= 1e-6
  for (std::size_t i = 0; i < fused1.beta.size(); ++i) {
    beta_diff_fused = std::max(
        beta_diff_fused, std::abs(fused1.beta[i] - unfused1.beta[i]));
    beta_diff_lazy = std::max(beta_diff_lazy,
                              std::abs(fused4.beta[i] - fused1.beta[i]));
  }
  const double round_reduction =
      100.0 * (1.0 - static_cast<double>(fused1.calls) /
                         static_cast<double>(unfused1.calls));
  const double byte_reduction =
      100.0 * (1.0 - static_cast<double>(fused4.bytes) /
                         static_cast<double>(fused1.bytes));
  std::printf("fusion round reduction:   %.1f%% (gate: >= 40%%)\n",
              round_reduction);
  std::printf("k=4 payload-byte cut:     %.1f%% (gate: >= 30%%)\n",
              byte_reduction);
  std::printf("fused k=1 max |dbeta|:    %.3g (gate: bitwise 0)\n",
              beta_diff_fused);
  std::printf("fused k=4 max |dbeta|:    %.3g (gate: <= 1e-6)\n",
              beta_diff_lazy);
  std::printf("k=4 payload-byte cut at rho0 trace/p: %.1f%% (not gated)\n",
              100.0 * (1.0 - static_cast<double>(scaled4.bytes) /
                                 static_cast<double>(scaled1.bytes)));
  telemetry.config("comm_avoid_round_reduction_pct", round_reduction)
      .config("comm_avoid_byte_reduction_pct", byte_reduction)
      .config("comm_avoid_fused_bitwise", beta_diff_fused == 0.0 ? 1 : 0)
      .config("comm_avoid_lazy_max_dbeta", beta_diff_lazy);
  if (beta_diff_fused != 0.0 || beta_diff_lazy > 1e-6 ||
      round_reduction < 40.0 || byte_reduction < 30.0) {
    std::printf("\nFAIL: communication-avoiding gates not met\n");
    return 1;
  }

  // -- live-telemetry overhead (the emitter must stay off the hot path) --
  //
  // The same 8-rank fit with the telemetry emitter streaming at a 50 ms
  // interval vs. off. Gates: the fitted beta must be bitwise identical
  // (the emitter only reads), checked here; the wall overhead lands in
  // the BENCH json (telemetry_overhead_pct) where the regression checker
  // enforces < 2% on runs long enough to measure.
  uoi::bench::banner("live-telemetry overhead (8 ranks)");
  const auto timed_fit = [&](const char* sink) {
    uoi::support::TelemetryOptions topt;
    topt.sink = sink == nullptr ? "" : sink;
    topt.interval_ms = 50;
    uoi::support::TelemetryEmitter emitter(topt);
    emitter.start();
    uoi::linalg::Vector beta;
    uoi::support::Stopwatch watch;
    uoi::sim::Cluster::run(8, [&](uoi::sim::Comm& comm) {
      const auto result =
          uoi::core::uoi_lasso_distributed(comm, data.x, data.y, options);
      if (comm.rank() == 0) beta = result.model.beta;
    });
    const double wall = watch.seconds();
    emitter.stop();
    return std::make_pair(wall, beta);
  };
  double wall_off = 0.0;
  double wall_on = 0.0;
  uoi::linalg::Vector beta_off;
  uoi::linalg::Vector beta_on;
  const std::string sink_path =
      uoi::bench::bench_output_dir() + "/BENCH_fig6_telemetry.jsonl";
  for (int rep = 0; rep < 3; ++rep) {  // min-of-3: suppress OS noise
    const auto off = timed_fit(nullptr);
    const auto on = timed_fit(sink_path.c_str());
    if (rep == 0 || off.first < wall_off) wall_off = off.first;
    if (rep == 0 || on.first < wall_on) wall_on = on.first;
    beta_off = off.second;
    beta_on = on.second;
  }
  double beta_diff_telemetry = 0.0;
  for (std::size_t i = 0; i < beta_on.size(); ++i) {
    beta_diff_telemetry = std::max(beta_diff_telemetry,
                                   std::abs(beta_on[i] - beta_off[i]));
  }
  const double overhead_pct =
      wall_off > 0.0 ? 100.0 * (wall_on - wall_off) / wall_off : 0.0;
  std::printf("telemetry off: %s, on: %s, overhead %.2f%%\n",
              uoi::support::format_seconds(wall_off).c_str(),
              uoi::support::format_seconds(wall_on).c_str(), overhead_pct);
  std::printf("telemetry max |dbeta|:    %.3g (gate: bitwise 0)\n",
              beta_diff_telemetry);
  telemetry.config("telemetry_overhead_pct", overhead_pct)
      .config("telemetry_wall_off_seconds", wall_off)
      .config("telemetry_bitwise", beta_diff_telemetry == 0.0 ? 1 : 0);
  if (beta_diff_telemetry != 0.0) {
    std::printf("\nFAIL: telemetry perturbed the fitted coefficients\n");
    return 1;
  }
  return 0;
}
