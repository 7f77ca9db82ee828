// uoibench workloads: problem generation, the timed distributed fit, the
// serial reference fit and the quality scores.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/support_set.hpp"
#include "core/uoi_lasso.hpp"
#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "io/h5lite.hpp"
#include "simcluster/cluster.hpp"
#include "support/stopwatch.hpp"
#include "var/var_distributed.hpp"
#include "var/var_model.hpp"

namespace uoibench {

namespace {

constexpr double kSupportTolerance = 1e-7;

/// Decorrelates the resampling seed from the data seed (splitmix64 step).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "lasso-comm") {
    // One task group of C = 4 ADMM cores: every ADMM iteration is a
    // 4-rank fused Allreduce, so the collective layer dominates.
    w.n = tiny ? 256 : 2048;
    w.p = tiny ? 16 : 64;
    w.k = tiny ? 4 : 8;
    w.correlation = 0.3;
    w.layout = {1, 1};
  } else if (name == "lasso-wide") {
    // P_B = 4, C = 1: each rank solves whole bootstraps alone (two each),
    // so kernels, screening, the solver cache and scheduler imbalance
    // dominate.
    w.n = tiny ? 192 : 512;
    w.p = tiny ? 48 : 256;
    w.k = tiny ? 4 : 16;
    w.layout = {4, 1};
    w.b1 = w.b2 = 8;
  } else if (name == "var-granger") {
    // P_lambda = 2, C = 2: two 2-rank consensus groups over the
    // distributed Kronecker product, series loaded from H5-lite per fit.
    w.is_var = true;
    w.nodes = tiny ? 6 : 16;
    w.samples = tiny ? 120 : 300;
    w.layout = {1, 2};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (lasso-comm, lasso-wide, var-granger)");
  }
  return w;
}

uoi::core::UoiLassoOptions lasso_options(const Workload& w,
                                         std::uint64_t seed) {
  uoi::core::UoiLassoOptions o;
  o.n_selection_bootstraps = w.b1;
  o.n_estimation_bootstraps = w.b2;
  o.n_lambdas = w.q;
  o.support_tolerance = kSupportTolerance;
  o.seed = derive(seed, 1);
  return o;
}

uoi::var::UoiVarOptions var_options(const Workload& w, std::uint64_t seed) {
  uoi::var::UoiVarOptions o;
  o.order = w.order;
  o.n_selection_bootstraps = w.b1;
  o.n_estimation_bootstraps = w.b2;
  o.n_lambdas = w.q;
  o.support_tolerance = kSupportTolerance;
  o.seed = derive(seed, 1);
  return o;
}

Problem setup_problem(const Workload& w, std::uint64_t seed, int replicate,
                      const std::string& work_dir) {
  Problem pr;
  pr.work_base = work_dir + "/" + w.name + "-" + std::to_string(replicate);
  pr.seed = derive(seed, 100 + static_cast<std::uint64_t>(replicate));
  if (!w.is_var) {
    uoi::data::RegressionSpec spec;
    spec.n_samples = w.n;
    spec.n_features = w.p;
    spec.support_size = w.k;
    spec.feature_correlation = w.correlation;
    spec.seed = derive(pr.seed, 2);
    auto data = uoi::data::make_regression(spec);
    pr.x = std::move(data.x);
    pr.y = std::move(data.y);
    pr.beta_true = std::move(data.beta_true);
    return pr;
  }
  uoi::data::VarSpec spec;
  spec.n_nodes = w.nodes;
  spec.order = w.order;
  // The ground-truth networks are fixed per replicate; the seed draws the
  // observed series and the resamples. Convergence speed is a property of
  // the network: some random networks at the default spectral radius drive
  // ADMM to its iteration cap on most lambdas and fit 1.5x (a few 15x)
  // slower, so networks drawn from the seed would make fit times bimodal
  // across seeds.
  spec.seed = derive(static_cast<std::uint64_t>(replicate) + 1, 7);
  const auto truth = uoi::data::make_sparse_var(spec);
  uoi::var::SimulateOptions sim;
  sim.n_samples = w.samples;
  sim.seed = derive(pr.seed, 3);
  pr.series = uoi::var::simulate(truth, sim);
  pr.beta_true = truth.vec_b();
  pr.dataset_base = pr.work_base + "-series";
  uoi::io::write_dataset(pr.dataset_base, pr.series, /*chunk_rows=*/64,
                         /*n_stripes=*/2);
  return pr;
}

FitResult fit_distributed(const Workload& w, const Problem& pr) {
  FitResult out;
  uoi::support::Stopwatch watch;
  if (!w.is_var) {
    const auto options = lasso_options(w, pr.seed);
    out.stats = uoi::sim::Cluster::run_collect_stats(
        w.ranks, [&](uoi::sim::Comm& comm) {
          auto result = uoi::core::uoi_lasso_distributed(comm, pr.x, pr.y,
                                                         options, w.layout);
          if (comm.rank() == 0) out.beta = std::move(result.model.beta);
        });
  } else {
    const auto options = var_options(w, pr.seed);
    out.stats = uoi::sim::Cluster::run_collect_stats(
        w.ranks, [&](uoi::sim::Comm& comm) {
          const auto series = uoi::var::load_series_distributed(
              comm, pr.dataset_base, w.readers);
          auto result = uoi::var::uoi_var_distributed(comm, series, options,
                                                      w.layout, w.readers);
          if (comm.rank() == 0) out.beta = std::move(result.model.vec_beta);
        });
  }
  out.seconds = watch.seconds();
  return out;
}

FitResult fit_serial(const Workload& w, const Problem& pr) {
  FitResult out;
  uoi::support::Stopwatch watch;
  if (!w.is_var) {
    const uoi::core::UoiLasso model(lasso_options(w, pr.seed));
    out.beta = model.fit(pr.x, pr.y).beta;
  } else {
    const uoi::var::UoiVar model(var_options(w, pr.seed));
    out.beta = model.fit(pr.series).vec_beta;
  }
  out.seconds = watch.seconds();
  return out;
}

Quality score(const uoi::linalg::Vector& beta,
              const uoi::linalg::Vector& truth) {
  const auto est = uoi::core::SupportSet::from_beta(beta, kSupportTolerance);
  const auto real = uoi::core::SupportSet::from_beta(truth, 0.0);
  const auto sel = uoi::core::selection_accuracy(est, real, truth.size());
  Quality q;
  q.support_f1 = sel.f1();
  q.false_positives = static_cast<double>(sel.false_positives);
  q.rel_l2_err = uoi::core::estimation_accuracy(beta, truth).relative_l2;
  return q;
}

bool byte_identical(const uoi::linalg::Vector& a,
                    const uoi::linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double max_abs_diff(const uoi::linalg::Vector& a,
                    const uoi::linalg::Vector& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace uoibench
