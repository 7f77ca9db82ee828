// Ablation — ADMM engineering choices DESIGN.md calls out:
//   (1) residual-balancing adaptive rho vs a fixed penalty,
//   (2) warm starts along the lambda path vs cold starts,
//   (3) initial rho: a unit rho0 vs the data-scaled trace(A'A)/width.
// Each is measured functionally (iteration counts of the serial solvers).
// The distributed loop's reduction modes (unfused, fused, k-step lazy
// consensus) are compared in bench_fig6_lasso_strong.
//
// Exits 1 when the data-scaled rho0 does not cut the lasso path's total
// iterations at least 3x against rho0 = 1.

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "data/synthetic_regression.hpp"
#include "data/synthetic_var.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/admm_lasso_sparse.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/format.hpp"
#include "support/table.hpp"
#include "var/lag_matrix.hpp"
#include "var/uoi_var.hpp"
#include "var/var_model.hpp"

namespace {

/// Totals of a cold 8-lambda path.
struct PathTotals {
  std::size_t iterations = 0;
  std::size_t rho_updates = 0;
  std::size_t cap_hits = 0;  ///< lambdas that stopped at max_iterations
};

/// One cold path over `grid` per initial rho: [0] from rho0 = 1, [1] from
/// the default data-scaled rho0. `make_solver(options)` builds the solver.
template <typename MakeSolver>
std::array<PathTotals, 2> cold_paths(const std::vector<double>& grid,
                                     const MakeSolver& make_solver) {
  std::array<PathTotals, 2> totals;
  for (std::size_t s = 0; s < 2; ++s) {
    uoi::solvers::AdmmOptions options;
    options.rho = s == 0 ? 1.0 : 0.0;
    const auto solver = make_solver(options);
    for (const double lambda : grid) {
      const auto fit = solver.solve(lambda);
      totals[s].iterations += fit.iterations;
      totals[s].rho_updates += fit.rho_updates;
      totals[s].cap_hits += fit.converged ? 0 : 1;
    }
  }
  return totals;
}

}  // namespace

int main() {
  std::printf("== Ablation: ADMM engineering choices ==\n\n");

  uoi::data::RegressionSpec spec;
  spec.n_samples = 512;
  spec.n_features = 64;
  spec.support_size = 8;
  spec.noise_stddev = 0.5;
  const auto data = uoi::data::make_regression(spec);
  const double lambda_hi = uoi::solvers::lambda_max(data.x, data.y);

  // ---- (1) adaptive vs fixed rho ----
  std::printf("-- (1) adaptive vs fixed rho (serial path, 8 lambdas) --\n\n");
  uoi::support::Table rho_table(
      {"rho policy", "total iterations", "converged lambdas"});
  for (const bool adaptive : {false, true}) {
    uoi::solvers::AdmmOptions options;
    options.adaptive_rho = adaptive;
    const uoi::solvers::LassoAdmmSolver solver(data.x, data.y, options);
    std::size_t iterations = 0, converged = 0;
    const auto grid = uoi::solvers::log_spaced_lambdas(lambda_hi, 1e-3, 8);
    for (const double lambda : grid) {
      const auto fit = solver.solve(lambda);
      iterations += fit.iterations;
      converged += fit.converged ? 1 : 0;
    }
    rho_table.add_row({adaptive ? "adaptive (residual balancing)" : "fixed",
                       uoi::support::format_count(iterations),
                       std::to_string(converged) + "/8"});
  }
  std::printf("%s\n", rho_table.to_text().c_str());

  // ---- (2) warm vs cold starts along the lambda path ----
  std::printf("-- (2) warm vs cold starts along an 8-lambda path --\n\n");
  uoi::support::Table warm_table({"start policy", "total iterations"});
  {
    const uoi::solvers::LassoAdmmSolver solver(data.x, data.y);
    const auto grid = uoi::solvers::log_spaced_lambdas(lambda_hi, 1e-3, 8);
    std::size_t cold = 0, warm = 0;
    uoi::solvers::AdmmResult previous;
    bool have_previous = false;
    for (const double lambda : grid) {
      cold += solver.solve(lambda).iterations;
      auto fit = solver.solve(lambda, have_previous ? &previous : nullptr);
      warm += fit.iterations;
      previous = std::move(fit);
      have_previous = true;
    }
    warm_table.add_row({"cold", uoi::support::format_count(cold)});
    warm_table.add_row({"warm (path)", uoi::support::format_count(warm)});
  }
  std::printf("%s\n", warm_table.to_text().c_str());

  // ---- (3) rho0 = 1 vs the data-scaled trace(A'A)/width ----
  std::printf("-- (3) initial rho: 1 vs trace(A'A)/width (cold 8-lambda "
              "paths) --\n\n");
  uoi::support::Table rho0_table({"problem", "rho0", "total iterations",
                                  "rho updates", "cap hits"});
  const auto add_rows = [&](const std::string& problem,
                            const std::array<PathTotals, 2>& totals) {
    for (std::size_t s = 0; s < 2; ++s) {
      rho0_table.add_row({problem, s == 0 ? "1" : "trace/width",
                          uoi::support::format_count(totals[s].iterations),
                          uoi::support::format_count(totals[s].rho_updates),
                          std::to_string(totals[s].cap_hits) + "/8"});
    }
  };
  bool gate_ok = true;
  for (const std::size_t n : {512, 2048}) {
    uoi::data::RegressionSpec lasso_spec = spec;
    lasso_spec.n_samples = n;
    const auto lasso_data = uoi::data::make_regression(lasso_spec);
    const auto totals = cold_paths(
        uoi::solvers::log_spaced_lambdas(
            uoi::solvers::lambda_max(lasso_data.x, lasso_data.y), 1e-3, 8),
        [&](const uoi::solvers::AdmmOptions& options) {
          return uoi::solvers::LassoAdmmSolver(lasso_data.x, lasso_data.y,
                                               options);
        });
    add_rows("lasso n=" + std::to_string(n) + " p=64", totals);
    gate_ok = gate_ok && 3 * totals[1].iterations <= totals[0].iterations;
  }
  {
    // A slow-converging network: 24 nodes at spectral radius 0.8, the
    // truth seed uoibench draws for its var-granger replicate 7.
    uoi::data::VarSpec var_spec;
    var_spec.n_nodes = 24;
    var_spec.spectral_radius = 0.8;
    var_spec.seed = 0xf4423394edb5d62bULL;
    uoi::var::SimulateOptions sim;
    sim.n_samples = 300;
    sim.seed = 7;
    const auto series =
        uoi::var::simulate(uoi::data::make_sparse_var(var_spec), sim);
    const auto lag = uoi::var::build_lag_regression(series, 1);
    const auto problem = uoi::var::vectorize(lag);
    uoi::var::UoiVarOptions grid_options;
    grid_options.n_lambdas = 8;
    add_rows("VAR 24 nodes, 300 samples",
             cold_paths(uoi::var::resolve_var_lambda_grid(grid_options, lag.y,
                                                          lag.x),
                        [&](const uoi::solvers::AdmmOptions& options) {
                          return uoi::solvers::KronLassoAdmmSolver(
                              problem.design, problem.vec_y, options);
                        }));
  }
  std::printf("%s\n", rho0_table.to_text().c_str());
  if (!gate_ok) {
    std::printf("FAIL: trace/width rho0 is not >= 3x fewer iterations than "
                "rho0 = 1 on the lasso path\n");
    return 1;
  }
  std::printf(
      "The production configuration (adaptive rho from a data-scaled rho0,\n"
      "warm starts) is the default.\n");
  return 0;
}
