#include "solvers/admm_lasso.hpp"

#include <cmath>
#include <cstdlib>

#include "linalg/blas.hpp"
#include "solvers/admm_loop.hpp"
#include "solvers/ridge_system.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;

double resolve_rho(double requested, double gram_trace, std::size_t width) {
  UOI_CHECK(requested >= 0.0, "rho must be non-negative (0 = data-scaled)");
  if (requested > 0.0) return requested;
  const double scaled =
      width > 0 ? gram_trace / static_cast<double>(width) : 0.0;
  return scaled > 0.0 && std::isfinite(scaled) ? scaled : 1.0;
}

std::size_t resolve_consensus_interval(std::size_t requested) {
  if (requested != 0) return requested;
  const char* env = std::getenv("UOI_CONSENSUS_INTERVAL");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1) {
      return static_cast<std::size_t>(value);
    }
    UOI_LOG_WARN.field("UOI_CONSENSUS_INTERVAL", env)
        << "unparseable consensus interval; using 1";
  }
  return 1;
}

LassoAdmmSolver::LassoAdmmSolver(ConstMatrixView a, std::span<const double> b,
                                 const AdmmOptions& options)
    : a_(a), b_(b), options_(options) {
  UOI_CHECK_DIMS(a.rows() == b.size(), "LASSO: X rows != y size");
  UOI_CHECK(a.rows() > 0 && a.cols() > 0, "LASSO: empty problem");

  atb_.assign(a.cols(), 0.0);
  uoi::linalg::gemv_transposed(1.0, a, b, 0.0, atb_);
  auto gram = std::make_shared<const RidgeGram>(a);
  options_.rho = resolve_rho(options_.rho, gram->gram().trace(), a.cols());
  system_ = std::make_unique<RidgeSystemSolver>(a, options_.rho, gram);
  // This solver built the Gram, so it pays for it (a cold start's cost).
  setup_flops_ = uoi::linalg::gemv_flops(a.rows(), a.cols()) +
                 system_->setup_flops() + gram->gram_flops();
  pending_setup_flops_ = setup_flops_;
}

LassoAdmmSolver::~LassoAdmmSolver() = default;

AdmmResult LassoAdmmSolver::solve(double lambda,
                                  const AdmmResult* warm_start) const {
  return solve_elastic_net(lambda, 0.0, warm_start);
}

AdmmResult LassoAdmmSolver::solve_elastic_net(
    double lambda1, double lambda2, const AdmmResult* warm_start) const {
  // The constructor-built factorization serves the initial rho; adaptive
  // rho changes refactor the cached rho-free Gram with a diagonal shift
  // (O(p^3/3)) instead of recomputing it from the data.
  std::unique_ptr<RidgeSystemSolver> rebuilt;
  double current_rho = options_.rho;
  std::uint64_t refactor_flops = 0;
  const std::uint64_t charged_setup = pending_setup_flops_;
  pending_setup_flops_ = 0;
  auto result = detail::run_admm_loop(
      a_.cols(), lambda1, options_, atb_,
      [&](std::span<const double> q, std::span<double> x, double rho) {
        if (rho != current_rho) {
          rebuilt =
              std::make_unique<RidgeSystemSolver>(a_, rho, system_->gram());
          refactor_flops += rebuilt->setup_flops();
          current_rho = rho;
        }
        (rebuilt ? *rebuilt : *system_).solve(q, x);
      },
      charged_setup, system_->solve_flops(), warm_start, lambda2);
  result.flops += refactor_flops;
  return result;
}

AdmmResult lasso_admm(ConstMatrixView a, std::span<const double> b,
                      double lambda, const AdmmOptions& options) {
  LassoAdmmSolver solver(a, b, options);
  return solver.solve(lambda);
}

}  // namespace uoi::solvers
