#include "core/uoi_lasso_distributed.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/distributed_common.hpp"
#include "sched/cost_model.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/screening.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

namespace {

using detail::block_slice;
using detail::gather_local_block;

/// Distributed evaluation over a task group: each rank scores its own
/// evaluation rows, (sq_err, count) is sum-reduced, and the MSE plus the
/// global evaluation count come back identical on every group rank.
struct DistributedEvaluation {
  double mse;
  double n_eval;
};
DistributedEvaluation distributed_mse(Comm& task_comm,
                                      ConstMatrixView x_local,
                                      std::span<const double> y_local,
                                      std::span<const double> beta) {
  double acc[2] = {0.0, static_cast<double>(x_local.rows())};
  for (std::size_t r = 0; r < x_local.rows(); ++r) {
    double pred = 0.0;
    const auto row = x_local.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) pred += row[c] * beta[c];
    const double err = pred - y_local[r];
    acc[0] += err * err;
  }
  task_comm.allreduce(std::span<double>(acc, 2), ReduceOp::kSum);
  return {acc[1] > 0.0 ? acc[0] / acc[1] : 0.0, acc[1]};
}

struct LinearSelectionEntry {
  Matrix x_local;
  Vector y_local;
  /// Replicated screening quantities (A'b, column norms, lambda_max);
  /// built collectively once per bootstrap, shared by every chain.
  uoi::solvers::DistributedScreenInputs screen_inputs;
  /// Full-p factorization; built only in off mode (screened chains build
  /// reduced factorizations per lambda instead).
  std::optional<uoi::solvers::DistributedLassoAdmmSolver> solver;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct LinearEstimationEntry {
  Matrix x_train, x_eval;
  Vector y_train, y_eval;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

}  // namespace

UoiFamily detail::linear_family(const LinearProblem& problem) {
  const std::size_t n = problem.x.rows();
  const std::size_t p = problem.x.cols();
  const bool screening_on =
      problem.screen.mode != uoi::solvers::ScreenMode::kOff;
  UoiFamily family;
  family.n_coefficients = p;
  family.winner_width = p;
  family.consensus_interval = problem.admm.consensus_interval;
  family.screen_mode = problem.screen.mode;

  family.select = [&problem, n, p, screening_on](
                      UoiPassContext& context, std::size_t k,
                      std::span<const std::size_t> cells) {
    // All chains of bootstrap k share one gather + one Gram/Cholesky
    // setup: the factorization depends on (X_k, rho) only, not lambda.
    const auto entry = context.cached<LinearSelectionEntry>(k, [&] {
      auto fresh = std::make_shared<LinearSelectionEntry>();
      {
        support::TraceScope distr_span("selection-gather",
                                       support::TraceCategory::kDistribution,
                                       context.trace_rank);
        const auto idx = selection_bootstrap_indices(problem.resampling, n, k);
        gather_local_block(
            problem.x, problem.y, idx,
            block_slice(idx.size(), context.group_size, context.group_rank),
            fresh->x_local, fresh->y_local);
      }
      {
        support::TraceScope gram_span("selection-gram",
                                      support::TraceCategory::kGram,
                                      context.trace_rank);
        fresh->screen_inputs = uoi::solvers::build_screen_inputs(
            context.task_comm, fresh->x_local, fresh->y_local);
        if (!screening_on) {
          // Only off mode pays the full-p Gram/Cholesky up front. Refined
          // options: cached full solvers must match the chain's internal
          // stopping rules.
          fresh->solver.emplace(context.task_comm, fresh->x_local,
                                fresh->y_local,
                                uoi::solvers::detail::refined_admm_options(
                                    problem.admm, problem.screen,
                                    fresh->screen_inputs.col_sq_norms));
        }
      }
      fresh->bytes_estimate =
          (n * (p + 1) + (screening_on ? 0 : p * p) + 2 * p + 1) *
          sizeof(double);
      return fresh;
    });
    if (entry->solver.has_value()) {
      context.charge_setup(entry->solver->setup_flops());
    }
    // The screened chain owns the warm start: every rank derives the
    // identical working set from the replicated screen inputs, so the
    // reduced consensus payload is (|W|+3) doubles instead of (p+3).
    uoi::solvers::DistributedScreenedLassoChain screened(
        context.task_comm, entry->x_local, entry->y_local,
        entry->screen_inputs, problem.admm, problem.screen,
        entry->solver.has_value() ? &*entry->solver : nullptr);
    Matrix betas(cells.size(), p);
    for (std::size_t m = 0; m < cells.size(); ++m) {
      const auto [l1, l2] = problem.penalties(cells[m]);
      const auto fit = screened.solve(l1, l2);
      context.admm += fit;
      std::copy(fit.beta.begin(), fit.beta.end(), betas.row(m).begin());
    }
    context.screen += screened.stats();
    return betas;
  };

  family.estimate = [&problem, n, p](UoiPassContext& context, std::size_t k,
                                     std::span<const std::size_t> cells) {
    // The gather is per bootstrap: a group revisiting a resample (several
    // chains, or interleaved work-stolen cells) still gathers once.
    const auto entry = context.cached<LinearEstimationEntry>(k, [&] {
      auto fresh = std::make_shared<LinearEstimationEntry>();
      support::TraceScope distr_span("estimation-gather",
                                     support::TraceCategory::kDistribution,
                                     context.trace_rank);
      const auto split = estimation_split(problem.resampling, n, k);
      gather_local_block(problem.x, problem.y, split.train,
                         block_slice(split.train.size(), context.group_size,
                                     context.group_rank),
                         fresh->x_train, fresh->y_train);
      gather_local_block(problem.x, problem.y, split.eval,
                         block_slice(split.eval.size(), context.group_size,
                                     context.group_rank),
                         fresh->x_eval, fresh->y_eval);
      fresh->bytes_estimate =
          (split.train.size() + split.eval.size()) * (p + 1) * sizeof(double);
      return fresh;
    });
    std::vector<UoiCellEstimate> estimates(cells.size());
    for (std::size_t m = 0; m < cells.size(); ++m) {
      const auto& support = context.supports[cells[m]].indices();
      Vector beta(p, 0.0);
      if (!support.empty()) {
        // Distributed OLS: consensus ADMM with lambda = 0 on the support
        // columns (paper §II-C), row-distributed over the task group.
        const Matrix x_train_s = entry->x_train.gather_cols(support);
        const auto fit = uoi::solvers::distributed_lasso_admm(
            context.task_comm, x_train_s, entry->y_train, /*lambda=*/0.0,
            problem.admm);
        context.admm += fit;
        for (std::size_t i = 0; i < support.size(); ++i) {
          beta[support[i]] = fit.beta[i];
        }
      }
      const auto eval = distributed_mse(context.task_comm, entry->x_eval,
                                        entry->y_eval, beta);
      estimates[m].loss = estimation_score(problem.criterion, eval.mse,
                                           eval.n_eval, support.size());
      estimates[m].row = std::move(beta);
    }
    return estimates;
  };
  return family;
}

UoiLassoDistributedResult uoi_lasso_distributed(
    Comm& comm, ConstMatrixView x_view, std::span<const double> y_view,
    const UoiLassoOptions& options, const UoiParallelLayout& layout) {
  UOI_CHECK_DIMS(x_view.rows() == y_view.size(),
                 "UoI_LASSO: X rows != y size");

  const std::size_t n = x_view.rows();
  const std::size_t p = x_view.cols();

  // Intercept handling mirrors the serial driver: deterministic centering
  // replicated on every rank.
  Matrix x_owned = Matrix::from_view(x_view);
  Vector y_owned(y_view.begin(), y_view.end());
  Vector x_means(p, 0.0);
  double y_mean = 0.0;
  if (options.fit_intercept) {
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = x_owned.row(r);
      for (std::size_t c = 0; c < p; ++c) x_means[c] += row[c];
      y_mean += y_owned[r];
    }
    for (auto& m : x_means) m /= static_cast<double>(n);
    y_mean /= static_cast<double>(n);
    for (std::size_t r = 0; r < n; ++r) {
      auto row = x_owned.row(r);
      for (std::size_t c = 0; c < p; ++c) row[c] -= x_means[c];
      y_owned[r] -= y_mean;
    }
  }

  UoiLassoDistributedResult out;
  UoiLassoResult& model = out.model;
  model.lambdas = resolve_lambda_grid(options, x_owned, y_owned);

  // Screening mode is resolved once up front: the cache entry's shape
  // (full solver or not) must be identical on every rank.
  uoi::solvers::ScreenOptions screen = options.screen;
  screen.mode = uoi::solvers::resolve_screen_mode(options.screen.mode);
  const detail::LinearProblem problem{
      x_owned, y_owned, options, options.admm, screen, options.criterion,
      [&](std::size_t j) { return std::pair{model.lambdas[j], 0.0}; }};
  UoiFamily family = detail::linear_family(problem);
  family.name = "lasso";
  family.cell_lambdas = model.lambdas;
  family.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      n, p, options.n_selection_bootstraps, options.n_estimation_bootstraps,
      model.lambdas.size(), options.admm.max_iterations, comm.size());
  family.fingerprint =
      UoiLasso(options).selection_fingerprint(n, p, model.lambdas);
  UoiPipelineResult run =
      UoiPipeline(pipeline_settings(options), std::move(family))
          .run(comm, layout);

  static_cast<UoiPipelineRecord&>(out) = std::move(run.record);
  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.total_flops = run.total_flops;
  model.beta = aggregate_estimates(detail::winner_rows(run.winners, p),
                                   options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  if (options.fit_intercept) {
    double dot = 0.0;
    for (std::size_t i = 0; i < p; ++i) dot += x_means[i] * model.beta[i];
    model.intercept = y_mean - dot;
  }
  return out;
}

}  // namespace uoi::core
