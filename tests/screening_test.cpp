// Tests for the SAFE / strong-rule screening layer: working-set rules,
// KKT re-admission on adversarial correlated designs, byte-identity of the
// canonical chain across screening modes (serial and distributed), and
// the reduced consensus payload accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "data/synthetic_regression.hpp"
#include "linalg/blas.hpp"
#include "simcluster/cluster.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/screening.hpp"

namespace {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::solvers::AdmmOptions;
using uoi::solvers::ScreenMode;
using uoi::solvers::ScreenOptions;
using uoi::solvers::ScreenedLassoChain;

uoi::data::RegressionDataset sparse_problem(std::uint64_t seed = 7,
                                            std::size_t n = 80,
                                            std::size_t p = 48,
                                            double correlation = 0.0) {
  uoi::data::RegressionSpec spec;
  spec.n_samples = n;
  spec.n_features = p;
  spec.support_size = 5;
  spec.noise_stddev = 0.2;
  spec.feature_correlation = correlation;
  spec.seed = seed;
  return uoi::data::make_regression(spec);
}

std::vector<double> descending_grid(ConstMatrixView x,
                                    std::span<const double> y, std::size_t q,
                                    double min_ratio) {
  const double hi = uoi::solvers::lambda_max(x, y);
  return uoi::solvers::log_spaced_lambdas(hi, min_ratio, q);
}

/// |x_j'(y - X beta)| <= lambda (+tol) everywhere — optimality of the
/// final beta regardless of which columns were screened away.
void expect_kkt(ConstMatrixView x, std::span<const double> y,
                std::span<const double> beta, double lambda, double tol) {
  Vector residual(y.begin(), y.end());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    residual[r] -= uoi::linalg::dot(x.row(r), beta);
  }
  Vector grad(x.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, x, residual, 0.0, grad);
  // The slack scales with lambda: ADMM's stopping test bounds the iterate
  // error, which enters the gradient proportionally to the data scale.
  const double slack = tol * std::max(1.0, lambda);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    EXPECT_LE(std::abs(grad[j]), lambda + slack) << "coordinate " << j;
  }
}

AdmmOptions tight_admm() {
  AdmmOptions options;
  options.eps_abs = 1e-9;
  options.eps_rel = 1e-7;
  options.max_iterations = 20000;
  return options;
}

ScreenOptions screen_with(ScreenMode mode) {
  ScreenOptions screen;
  screen.mode = mode;
  return screen;
}

TEST(ScreenMode, EnvResolution) {
  // Explicit modes win over the environment.
  setenv("UOI_SCREEN", "off", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kSafe),
            ScreenMode::kSafe);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kOff);
  setenv("UOI_SCREEN", "safe", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kSafe);
  setenv("UOI_SCREEN", "bogus", 1);
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kStrong);
  unsetenv("UOI_SCREEN");
  EXPECT_EQ(uoi::solvers::resolve_screen_mode(ScreenMode::kAuto),
            ScreenMode::kStrong);
  EXPECT_STREQ(uoi::solvers::screen_mode_name(ScreenMode::kStrong), "strong");
}

TEST(Screening, WorkingSetRulesScreenInactiveColumns) {
  const auto data = sparse_problem();
  const auto lambdas = descending_grid(data.x, data.y, 8, 0.05);
  for (const ScreenMode mode : {ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    for (const double lambda : lambdas) (void)chain.solve(lambda);
    const auto& stats = chain.stats();
    EXPECT_EQ(stats.lambdas, lambdas.size());
    EXPECT_EQ(stats.survivors + stats.gram_cols_saved, stats.total_columns);
    // On a clean sparse problem the strong rule must discard a large
    // fraction of the Gram columns (this is the entire point of the
    // layer); basic SAFE is certified but weak once lambda drops well
    // below lambda_max, so it only has to save something.
    if (mode == ScreenMode::kStrong) {
      EXPECT_GT(stats.gram_cols_saved, stats.total_columns / 4);
    } else {
      EXPECT_GT(stats.gram_cols_saved, 0u);
    }
  }
}

TEST(Screening, ModesAreByteIdenticalOnChain) {
  const auto data = sparse_problem();
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.05);
  std::vector<std::vector<Vector>> betas;
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    std::vector<Vector> path;
    for (const double lambda : lambdas) {
      auto fit = chain.solve(lambda);
      expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
      path.push_back(std::move(fit.beta));
    }
    betas.push_back(std::move(path));
  }
  for (std::size_t m = 1; m < betas.size(); ++m) {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      ASSERT_EQ(betas[0][i].size(), betas[m][i].size());
      for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
        EXPECT_EQ(betas[0][i][j], betas[m][i][j])
            << "mode " << m << " lambda " << i << " coord " << j;
      }
    }
  }
}

TEST(Screening, ElasticNetByteIdenticalAcrossModes) {
  const auto data = sparse_problem(11);
  const auto lambdas = descending_grid(data.x, data.y, 5, 0.1);
  const double l1_ratio = 0.7;
  std::vector<std::vector<Vector>> betas;
  for (const ScreenMode mode : {ScreenMode::kOff, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    std::vector<Vector> path;
    for (const double lambda : lambdas) {
      auto fit = chain.solve(lambda * l1_ratio, lambda * (1.0 - l1_ratio));
      path.push_back(std::move(fit.beta));
    }
    betas.push_back(std::move(path));
  }
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
      EXPECT_EQ(betas[0][i][j], betas[1][i][j])
          << "lambda " << i << " coord " << j;
    }
  }
}

TEST(Screening, ChainResetsWhenLambdaJumpsUp) {
  // The elastic-net distributed grid walks (ratio, lambda) cells where
  // lambda jumps back up at each ratio boundary; the chain must restart
  // its sequential state instead of applying a bogus strong rule.
  const auto data = sparse_problem(13);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.1);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  // Jump back to the top of the grid: results must match a fresh chain.
  ScreenedLassoChain fresh(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) {
    const auto restarted = chain.solve(lambda);
    const auto cold = fresh.solve(lambda);
    for (std::size_t j = 0; j < cold.beta.size(); ++j) {
      EXPECT_EQ(restarted.beta[j], cold.beta[j]) << "coord " << j;
    }
  }
}

TEST(Screening, KktReAdmissionOnAdversarialCorrelatedDesign) {
  // Heavily correlated columns with a coarse lambda grid make the strong
  // rule discard active columns; the KKT loop must re-admit them and the
  // final beta must still satisfy optimality everywhere.
  const auto data = sparse_problem(17, 100, 64, /*correlation=*/0.95);
  const auto lambdas = descending_grid(data.x, data.y, 4, 0.01);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kStrong));
  for (const double lambda : lambdas) {
    const auto fit = chain.solve(lambda);
    expect_kkt(data.x, data.y, fit.beta, lambda, 1e-5);
  }
  const auto& stats = chain.stats();
  // Violations imply rounds, and both are bounded by the round cap.
  EXPECT_EQ(stats.kkt_violations == 0, stats.kkt_rounds == 0);
  EXPECT_LE(stats.kkt_rounds,
            stats.lambdas * ScreenOptions{}.max_kkt_rounds);
}

TEST(Screening, SafeRuleNeverViolatesKkt) {
  // SAFE is a certificate: discarded columns are provably inactive, so
  // the post-check must never find a violator.
  const auto data = sparse_problem(19, 100, 64, /*correlation=*/0.9);
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.02);
  ScreenedLassoChain chain(data.x, data.y, tight_admm(),
                           screen_with(ScreenMode::kSafe));
  for (const double lambda : lambdas) (void)chain.solve(lambda);
  EXPECT_EQ(chain.stats().kkt_violations, 0u);
}

TEST(Screening, LambdaMaxGivesEmptySolution) {
  const auto data = sparse_problem(23);
  const double lambda = uoi::solvers::lambda_max(data.x, data.y);
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kSafe, ScreenMode::kStrong}) {
    ScreenedLassoChain chain(data.x, data.y, tight_admm(), screen_with(mode));
    const auto fit = chain.solve(lambda * 1.0000001);
    for (const double v : fit.beta) EXPECT_EQ(v, 0.0);
  }
}

TEST(ScreeningDistributed, ModesAreByteIdenticalAndShrinkPayload) {
  const auto data = sparse_problem(29, 96, 64);
  const auto lambdas = descending_grid(data.x, data.y, 6, 0.05);
  const AdmmOptions admm = tight_admm();

  std::vector<std::vector<Vector>> betas;
  std::vector<std::uint64_t> bytes;
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kStrong, ScreenMode::kSafe}) {
    std::vector<Vector> path;
    std::uint64_t mode_bytes = 0;
    uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto local_x = data.x.row_block(begin, end - begin);
      const std::span<const double> local_y =
          std::span<const double>(data.y).subspan(begin, end - begin);
      const auto shared =
          uoi::solvers::build_screen_inputs(comm, local_x, local_y);
      uoi::solvers::DistributedScreenedLassoChain chain(
          comm, local_x, local_y, shared, admm, screen_with(mode));
      for (const double lambda : lambdas) {
        auto fit = chain.solve(lambda);
        EXPECT_TRUE(fit.converged);
        if (comm.rank() == 0) {
          mode_bytes += fit.allreduce_bytes;
          path.push_back(std::move(fit.beta));
        }
      }
    });
    betas.push_back(std::move(path));
    bytes.push_back(mode_bytes);
  }
  for (std::size_t m = 1; m < betas.size(); ++m) {
    ASSERT_EQ(betas[0].size(), betas[m].size());
    for (std::size_t i = 0; i < betas[0].size(); ++i) {
      for (std::size_t j = 0; j < betas[0][i].size(); ++j) {
        EXPECT_EQ(betas[0][i][j], betas[m][i][j])
            << "mode " << m << " lambda " << i << " coord " << j;
      }
    }
  }
  // Active-set consensus: screened payloads ((|W|+3) doubles per round,
  // plus the KKT checks) must move fewer bytes than the full-p chain.
  EXPECT_LT(bytes[1], bytes[0]);
}

TEST(ScreeningDistributed, CachedFullSolverMatchesScreenedModesAtFullSupport) {
  // Every feature active, so the path ends on supports of all p: there the
  // off-mode result *is* the working solve of the cached full solver the
  // drivers build up front (refined options from the shared column norms),
  // while safe/strong return a gathered all-p solve. Both must start from
  // the chain's one data-scaled rho to agree bitwise.
  uoi::data::RegressionSpec spec;
  spec.n_samples = 64;
  spec.n_features = 8;
  spec.support_size = 8;
  spec.seed = 37;
  const auto data = uoi::data::make_regression(spec);
  const auto lambdas = descending_grid(data.x, data.y, 5, 1e-3);
  const AdmmOptions admm;  // default: data-scaled rho

  std::vector<std::vector<Vector>> betas;
  for (const ScreenMode mode :
       {ScreenMode::kOff, ScreenMode::kStrong, ScreenMode::kSafe}) {
    std::vector<Vector> path;
    uoi::sim::Cluster::run(2, [&](uoi::sim::Comm& comm) {
      const std::size_t n = data.x.rows();
      const std::size_t begin = n * comm.rank() / comm.size();
      const std::size_t end = n * (comm.rank() + 1) / comm.size();
      const auto local_x = data.x.row_block(begin, end - begin);
      const std::span<const double> local_y =
          std::span<const double>(data.y).subspan(begin, end - begin);
      const auto shared =
          uoi::solvers::build_screen_inputs(comm, local_x, local_y);
      std::optional<uoi::solvers::DistributedLassoAdmmSolver> cached;
      if (mode == ScreenMode::kOff) {
        cached.emplace(comm, local_x, local_y,
                       uoi::solvers::detail::refined_admm_options(
                           admm, screen_with(mode), shared.col_sq_norms));
      }
      uoi::solvers::DistributedScreenedLassoChain chain(
          comm, local_x, local_y, shared, admm, screen_with(mode),
          cached ? &*cached : nullptr);
      for (const double lambda : lambdas) {
        auto fit = chain.solve(lambda);
        if (comm.rank() == 0) path.push_back(std::move(fit.beta));
      }
    });
    betas.push_back(std::move(path));
  }
  for (const double b : betas[0].back()) EXPECT_NE(b, 0.0);  // all p active
  for (std::size_t m = 1; m < betas.size(); ++m) {
    for (std::size_t i = 0; i < betas[0].size(); ++i) {
      EXPECT_EQ(uoi::linalg::max_abs_diff(betas[0][i], betas[m][i]), 0.0)
          << "mode " << m << " lambda " << i;
    }
  }
}

TEST(ScreeningDistributed, SharedInputsMatchSerialQuantities) {
  const auto data = sparse_problem(31, 64, 32);
  uoi::sim::Cluster::run(3, [&](uoi::sim::Comm& comm) {
    const std::size_t n = data.x.rows();
    const std::size_t begin = n * comm.rank() / comm.size();
    const std::size_t end = n * (comm.rank() + 1) / comm.size();
    const auto shared = uoi::solvers::build_screen_inputs(
        comm, data.x.row_block(begin, end - begin),
        std::span<const double>(data.y).subspan(begin, end - begin));
    Vector atb(data.x.cols(), 0.0);
    uoi::linalg::gemv_transposed(1.0, data.x, data.y, 0.0, atb);
    for (std::size_t j = 0; j < atb.size(); ++j) {
      EXPECT_NEAR(shared.atb[j], atb[j], 1e-9);
    }
    EXPECT_NEAR(shared.b_norm_sq, uoi::linalg::nrm2_squared(data.y), 1e-9);
    EXPECT_NEAR(shared.lambda_max,
                uoi::solvers::lambda_max(data.x, data.y), 1e-9);
  });
}

}  // namespace
