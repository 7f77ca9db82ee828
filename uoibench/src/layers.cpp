// uoibench per-layer metrics (the traced run). Counters come from what the
// library already exports — Cluster::run_collect_stats CommStats, the
// MetricsRegistry admm.* / screen.* / solver_cache.* / sched.* counters and
// report::build_run_report — and layer rates come from direct, timed calls
// into each layer's public functions at the workload's own shapes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "core/uoi_lasso.hpp"
#include "io/h5lite.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "report/run_report.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/distributed_admm.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"
#include "var/lag_matrix.hpp"
#include "var/var_distributed.hpp"

namespace uoibench {

namespace {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::CommCategory;

/// Largest |distributed - serial| coefficient difference accepted. The
/// distributed and serial drivers draw identical resamples but reduce in a
/// different order, so ADMM stops at slightly different iterates; the
/// estimation refit on the same support then agrees to well below the
/// ADMM tolerances (eps_abs 1e-6, eps_rel 1e-4) scaled by ||beta||.
constexpr double kRefTolerance = 1e-3;

/// Median over `reps` timings of `body`.
template <typename Body>
double median_seconds(int reps, Body body) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    uoi::support::Stopwatch watch;
    body();
    t.push_back(watch.seconds());
  }
  return quantile(t, 0.5);
}

/// Seconds per call of `body`, batched to ~`batch_s` and the median of
/// five batches taken.
template <typename Body>
double per_call_seconds(double batch_s, Body body) {
  std::size_t calls = 1;
  for (;;) {
    uoi::support::Stopwatch watch;
    for (std::size_t i = 0; i < calls; ++i) body();
    if (watch.seconds() >= batch_s / 4 || calls >= (1u << 30)) break;
    calls *= 4;
  }
  return median_seconds(5, [&] {
           for (std::size_t i = 0; i < calls; ++i) body();
         }) /
         static_cast<double>(calls);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  uoi::support::Xoshiro256 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// The workload's regression in lag-regression form: the VAR lag matrices,
/// or for a lasso workload the single-equation (X, y), whose "Kronecker
/// product" I_1 (x) X is the row distribution of X itself.
uoi::var::LagRegression lag_form(const Workload& w, const Problem& pr) {
  if (w.is_var) return uoi::var::build_lag_regression(pr.series, w.order);
  uoi::var::LagRegression lag;
  lag.x = pr.x;
  lag.y = Matrix(pr.y.size(), 1);
  std::copy(pr.y.begin(), pr.y.end(), lag.y.data());
  return lag;
}

/// Isolated Allreduce latency: every rank of a `group`-rank cluster calls
/// Comm::allreduce on `doubles` doubles back to back. Microseconds/call.
double allreduce_iso_us(int group, std::size_t doubles) {
  std::vector<double> batches;
  const int calls = 2000;
  for (int rep = 0; rep < 5; ++rep) {
    double secs = 0.0;
    Cluster::run(group, [&](Comm& comm) {
      Vector buf(std::max<std::size_t>(1, doubles), 1.0);
      comm.barrier();
      uoi::support::Stopwatch watch;
      for (int i = 0; i < calls; ++i) {
        comm.allreduce(buf, uoi::sim::ReduceOp::kSum);
        buf[0] = 1.0;
      }
      comm.barrier();
      if (comm.rank() == 0) secs = watch.seconds();
    });
    batches.push_back(secs / calls * 1e6);
  }
  return quantile(batches, 0.5);
}

/// Seconds per ADMM iteration of a warm-started lambda-chain replay on one
/// task group (C ranks): the first selection bootstrap for lasso, the
/// vectorized full-series problem for VAR.
double seconds_per_iteration(const Workload& w, const Problem& pr) {
  const int group = w.cores_per_group();
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    double secs = 0.0;
    std::size_t iterations = 0;
    Cluster::run(group, [&](Comm& comm) {
      std::size_t iters = 0;
      uoi::support::Stopwatch watch;
      if (!w.is_var) {
        const auto options = lasso_options(w, pr.seed);
        const auto idx =
            uoi::core::selection_bootstrap_indices(options, pr.x.rows(), 0);
        const Matrix xb = pr.x.gather_rows(idx);
        Vector yb(idx.size());
        for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = pr.y[idx[i]];
        const auto lambdas = uoi::core::resolve_lambda_grid(options, xb, yb);
        const std::size_t n = xb.rows();
        const std::size_t lo = n * comm.rank() / comm.size();
        const std::size_t hi = n * (comm.rank() + 1) / comm.size();
        comm.barrier();
        watch.reset();
        uoi::solvers::DistributedLassoAdmmSolver solver(
            comm, xb.row_block(lo, hi - lo),
            std::span<const double>(yb).subspan(lo, hi - lo), options.admm);
        uoi::solvers::DistributedAdmmResult warm;
        for (std::size_t j = 0; j < lambdas.size(); ++j) {
          warm = solver.solve(lambdas[j], j == 0 ? nullptr : &warm);
          iters += warm.iterations;
        }
      } else {
        const auto options = var_options(w, pr.seed);
        const auto lag = uoi::var::build_lag_regression(pr.series, w.order);
        const auto lambdas =
            uoi::var::resolve_var_lambda_grid(options, lag.y, lag.x);
        const auto block = uoi::var::distributed_kron_vectorize(
            comm, lag, std::min(w.readers, comm.size()));
        comm.barrier();
        watch.reset();
        uoi::var::DistributedVarAdmmSolver solver(comm, block, options.admm);
        uoi::solvers::DistributedAdmmResult warm;
        for (std::size_t j = 0; j < lambdas.size(); ++j) {
          warm = solver.solve(lambdas[j], j == 0 ? nullptr : &warm);
          iters += warm.iterations;
        }
      }
      comm.barrier();
      if (comm.rank() == 0) {
        secs = watch.seconds();
        iterations = iters;
      }
    });
    rates.push_back(
        secs / static_cast<double>(std::max<std::size_t>(1, iterations)));
  }
  return quantile(rates, 0.5);
}

/// Sum over ranks of one MetricsRegistry counter.
double registry_sum(const std::vector<uoi::support::MetricsRegistry::Entry>& m,
                    const std::string& name) {
  double total = 0.0;
  for (const auto& e : m) {
    if (e.name == name) total += e.value;
  }
  return total;
}

}  // namespace

void measure_layers(const Workload& w, const Problem& pr,
                    const Vector& reference_beta, double untraced_fit_s,
                    const HostInfo& host, bool tiny, std::vector<Metric>& out,
                    Tally& tally) {
  const auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  const double ranks = static_cast<double>(w.ranks);

  // ---- One traced fit: counters, imbalance and the span count ----
  auto& tracer = uoi::support::Tracer::instance();
  auto& registry = uoi::support::MetricsRegistry::instance();
  tracer.clear();
  registry.clear();
  tracer.set_capture_events(true);
  ++tally.attempted;
  const FitResult traced = fit_distributed(w, pr);
  const double events = static_cast<double>(tracer.event_count());
  tracer.set_capture_events(false);
  auto inputs = uoi::report::collect_inputs(traced.seconds);
  inputs.events.clear();  // totals suffice; the span DAG is not needed
  const auto report = uoi::report::build_run_report(inputs);
  tracer.clear();
  if (!byte_identical(traced.beta, reference_beta)) {
    std::fprintf(stderr, "FAIL: traced fit beta differs from untraced fit\n");
    ++tally.failed;
  }

  uoi::sim::CommStats sum;
  for (const auto& s : traced.stats) sum += s;
  const auto& ar = sum.of(CommCategory::kAllreduce);
  const auto& os = sum.of(CommCategory::kOneSided);
  const double ar_calls = static_cast<double>(ar.calls) / ranks;
  const double ar_bytes = static_cast<double>(ar.bytes) / ranks;
  const double ar_s = ar.seconds / ranks;
  const std::size_t payload_doubles =
      ar.calls == 0 ? 1
                    : static_cast<std::size_t>(std::llround(
                          ar_bytes / std::max(1.0, ar_calls) / 8.0));
  const double iso_us = allreduce_iso_us(w.cores_per_group(), payload_doubles);
  add("simcluster.allreduce_calls", ar_calls, "count");
  add("simcluster.allreduce_bytes", ar_bytes, "B");
  add("simcluster.allreduce_s", ar_s, "s");
  add("simcluster.allreduce_iso_us", iso_us, "us");
  add("simcluster.allreduce_wait_s",
      std::max(0.0, ar_s - ar_calls * iso_us * 1e-6), "s");
  add("simcluster.onesided_calls", static_cast<double>(os.calls) / ranks,
      "count");
  add("simcluster.onesided_bytes", static_cast<double>(os.bytes) / ranks, "B");
  add("simcluster.onesided_s", os.seconds / ranks, "s");

  const auto& m = inputs.metrics;
  const double iterations = registry_sum(m, "admm.iterations");
  const double chain_steps = registry_sum(m, "screen.lambdas");
  const double hits = registry_sum(m, "solver_cache.hits");
  const double misses = registry_sum(m, "solver_cache.misses");
  add("solvers.admm_iterations", iterations / ranks, "count");
  add("solvers.consensus_rounds",
      registry_sum(m, "admm.consensus_rounds") / ranks, "count");
  add("solvers.rho_updates", registry_sum(m, "admm.rho_updates") / ranks,
      "count");
  add("solvers.iters_per_lambda",
      chain_steps > 0 ? iterations / chain_steps : 0.0, "count");
  add("solvers.s_per_iter", seconds_per_iteration(w, pr), "s");
  add("solvers.screen_survivor_frac", report.screening.survivor_fraction,
      "ratio");
  add("solvers.kkt_violations", report.screening.kkt_violations, "count");
  add("solvers.cache_hit_rate",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  add("solvers.gram_s", report.gram_seconds, "s");

  // ---- Kernels at the workload's Gram shapes, against this host ----
  // Gram of one rank's rows: a bootstrap's n / C rows x p (lasso), or the
  // (N - d) x dp lag block of one equation (VAR).
  const std::size_t rows =
      w.is_var ? w.samples - w.order
               : w.n / static_cast<std::size_t>(w.cores_per_group());
  const std::size_t cols = w.is_var ? w.nodes * w.order : w.p;
  const Matrix a = random_matrix(rows, cols, pr.seed + 11);
  Matrix gram(cols, cols);
  const double syrk_s = per_call_seconds(
      0.1, [&] { uoi::linalg::syrk_at_a(1.0, a, 0.0, gram); });
  const double syrk_flops =
      static_cast<double>(rows) * static_cast<double>(cols) *
      static_cast<double>(cols + 1);
  for (std::size_t i = 0; i < cols; ++i) {
    gram(i, i) += static_cast<double>(rows);
  }
  const double chol_s =
      per_call_seconds(0.1, [&] { uoi::linalg::CholeskyFactor f(gram); });
  const Matrix dots = random_matrix(2, cols, pr.seed + 12);
  double dot_sum = 0.0;  // consumed below so the calls stay observable
  const double dot_s = per_call_seconds(
      0.05, [&] { dot_sum += uoi::linalg::dot(dots.row(0), dots.row(1)); });
  const Calibration cal = calibrate(
      w.ranks, tiny ? (16ULL << 20) : 4 * host.llc_bytes);
  add("linalg.syrk_gflops", syrk_flops / syrk_s / 1e9, "GFLOP/s");
  add("linalg.cholesky_gflops",
      std::pow(static_cast<double>(cols), 3) / 3.0 / chol_s / 1e9, "GFLOP/s");
  add("linalg.dot_gbps", 16.0 * static_cast<double>(cols) / dot_s / 1e9,
      "GB/s");
  add("linalg.peak_gflops", cal.peak_gflops, "GFLOP/s");
  add("linalg.stream_gbs", cal.stream_gbs, "GB/s");
  add("linalg.syrk_ops_per_byte",
      syrk_flops / (8.0 * static_cast<double>(rows * cols + cols * cols)),
      "flop/B");
  std::printf("kernel shapes: syrk %zu x %zu, cholesky %zu, dot %zu "
              "(checksum %.3g); ops/byte computed from array sizes\n",
              rows, cols, cols, cols, dot_sum);
  std::printf("calibration: %d threads, stream arrays 2 x %.1f MiB, "
              "total LLC %.1f MiB (checksum %.3g)\n",
              w.ranks, static_cast<double>(cal.array_bytes) / (1 << 20),
              static_cast<double>(host.llc_bytes) / (1 << 20), cal.checksum);

  // ---- Scheduler imbalance across the rank timelines ----
  add("sched.compute_max_over_mean", report.compute_max_over_mean, "ratio");
  add("sched.placement_error", report.scheduler.placement_error, "ratio");
  add("sched.steals_succeeded", report.scheduler.steals_succeeded, "count");

  // ---- Data path: H5-lite write, distributed load, Kronecker ----
  const auto lag = lag_form(w, pr);
  Matrix file_data =
      w.is_var ? pr.series : Matrix(pr.x.rows(), pr.x.cols() + 1);
  if (!w.is_var) {
    for (std::size_t r = 0; r < pr.x.rows(); ++r) {
      std::copy(pr.x.row(r).begin(), pr.x.row(r).end(),
                file_data.row(r).begin());
      file_data(r, pr.x.cols()) = pr.y[r];
    }
  }
  const std::string io_base = pr.work_base + "-io";
  const double write_s = median_seconds(5, [&] {
    uoi::io::write_dataset(io_base, file_data, 64, 2);
  });
  const double load_s = median_seconds(5, [&] {
    Cluster::run(w.ranks, [&](Comm& comm) {
      const auto loaded =
          uoi::var::load_series_distributed(comm, io_base, w.readers);
      if (loaded.rows() != file_data.rows()) {
        throw std::runtime_error("load_series_distributed: wrong row count");
      }
    });
  });
  const double kron_s = median_seconds(5, [&] {
    Cluster::run(w.ranks, [&](Comm& comm) {
      const auto block =
          uoi::var::distributed_kron_vectorize(comm, lag, w.readers);
      if (block.dp != lag.x.cols()) {
        throw std::runtime_error("distributed_kron_vectorize: wrong width");
      }
    });
  });
  for (std::uint64_t k = 0; k < 2; ++k) {
    std::error_code ec;
    std::filesystem::remove(uoi::io::stripe_path(io_base, k), ec);
  }
  add("var.kron_s", kron_s, "s");
  add("var.load_s", load_s, "s");
  add("io.write_s", write_s, "s");

  // ---- Single-threaded baseline on the same problem ----
  ++tally.attempted;
  const FitResult serial = fit_serial(w, pr);
  const double ref_diff = max_abs_diff(serial.beta, reference_beta);
  add("core.serial_fit_s", serial.seconds, "s");
  add("core.speedup_vs_serial", serial.seconds / untraced_fit_s, "ratio");
  add("core.ref_max_abs_diff", ref_diff, "abs");
  if (!(ref_diff <= kRefTolerance)) {
    std::fprintf(stderr,
                 "FAIL: distributed vs serial max |dbeta| %.3g exceeds %.1g\n",
                 ref_diff, kRefTolerance);
    ++tally.failed;
  }
  add("trace.events", events, "count");
}

}  // namespace uoibench
