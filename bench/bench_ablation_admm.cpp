// Ablation — ADMM engineering choices DESIGN.md calls out:
//   (1) residual-balancing adaptive rho vs a fixed penalty,
//   (2) warm starts along the lambda path vs cold starts.
// Each is measured functionally (iteration counts of the serial solver).
// The distributed loop's reduction modes (unfused, fused, k-step lazy
// consensus) are compared in bench_fig6_lasso_strong.

#include <cstdio>

#include "data/synthetic_regression.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/lambda_grid.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

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
  std::printf(
      "The production configuration (adaptive rho + warm starts) is the\n"
      "default.\n");
  return 0;
}
