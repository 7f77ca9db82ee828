#include "core/uoi_logistic_distributed.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/distributed_common.hpp"
#include "sched/cost_model.hpp"
#include "solvers/distributed_logistic.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/logistic.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace uoi::core {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::ReduceOp;

namespace {

using detail::block_slice;
using detail::gather_local_block;

// Gather-only cache entries (IRLS has no reusable factorization).
struct LogisticSelectionEntry {
  Matrix x_local;
  Vector y_local;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

struct LogisticEstimationEntry {
  Matrix x_train, x_eval_local;
  Vector y_train, y_eval_local;
  std::size_t bytes_estimate = 0;
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_estimate; }
};

}  // namespace

UoiLogisticDistributedResult uoi_logistic_distributed(
    uoi::sim::Comm& comm, ConstMatrixView x, std::span<const double> y,
    const UoiLogisticOptions& options, const UoiParallelLayout& layout) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_Logistic: X rows != y size");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix x_owned = Matrix::from_view(x);
  const UoiLassoOptions resampling = resampling_options(options);

  UoiLogisticDistributedResult out;
  UoiLogisticResult& model = out.model;
  const double hi = uoi::solvers::logistic_lambda_max(x, y);
  UOI_CHECK(hi > 0.0, "degenerate labels: lambda_max is zero");
  model.lambdas = uoi::solvers::log_spaced_lambdas(
      hi, options.lambda_min_ratio, options.n_lambdas);

  uoi::solvers::AdmmOptions admm;
  admm.eps_abs = 1e-7;
  admm.eps_rel = 1e-5;
  admm.max_iterations = 2000;
  admm.consensus_interval = options.consensus_interval;

  UoiFamily family;
  family.name = "logistic";
  family.n_coefficients = p;
  family.winner_width = p + 1;  // beta, then the intercept
  family.cell_lambdas = model.lambdas;
  family.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      n, p, options.n_selection_bootstraps, options.n_estimation_bootstraps,
      model.lambdas.size(), admm.max_iterations, comm.size());
  family.consensus_interval = options.consensus_interval;

  // Selection: one cold consensus l1-logistic fit per cell.
  family.select = [&](UoiPassContext& context, std::size_t k,
                      std::span<const std::size_t> cells) {
    const auto entry = context.cached<LogisticSelectionEntry>(k, [&] {
      auto fresh = std::make_shared<LogisticSelectionEntry>();
      support::TraceScope distr_span("selection-gather",
                                     support::TraceCategory::kDistribution,
                                     context.trace_rank);
      const auto idx = selection_bootstrap_indices(resampling, n, k);
      gather_local_block(
          x, y, idx,
          block_slice(idx.size(), context.group_size, context.group_rank),
          fresh->x_local, fresh->y_local);
      fresh->bytes_estimate = n * (p + 1) * sizeof(double);
      return fresh;
    });
    Matrix betas(cells.size(), p);
    for (std::size_t m = 0; m < cells.size(); ++m) {
      const auto fit = uoi::solvers::distributed_logistic_lasso(
          context.task_comm, entry->x_local, entry->y_local,
          model.lambdas[cells[m]], admm);
      context.admm += fit;
      std::copy(fit.beta.begin(), fit.beta.end(), betas.row(m).begin());
    }
    return betas;
  };

  // Estimation: unpenalized IRLS refits scored by held-out log loss.
  family.estimate = [&](UoiPassContext& context, std::size_t k,
                        std::span<const std::size_t> cells) {
    const auto entry = context.cached<LogisticEstimationEntry>(k, [&] {
      auto fresh = std::make_shared<LogisticEstimationEntry>();
      support::TraceScope distr_span("estimation-gather",
                                     support::TraceCategory::kDistribution,
                                     context.trace_rank);
      const auto split = estimation_split(resampling, n, k);
      // IRLS refits run on the full training split (they are cheap:
      // support columns only); evaluation rows are partitioned for the
      // loss.
      fresh->x_train = x_owned.gather_rows(split.train);
      fresh->y_train = Vector(split.train.size());
      for (std::size_t i = 0; i < split.train.size(); ++i) {
        fresh->y_train[i] = y[split.train[i]];
      }
      gather_local_block(x, y, split.eval,
                         block_slice(split.eval.size(), context.group_size,
                                     context.group_rank),
                         fresh->x_eval_local, fresh->y_eval_local);
      fresh->bytes_estimate =
          (split.train.size() + split.eval.size()) * (p + 1) * sizeof(double);
      return fresh;
    });
    const Matrix& x_eval = entry->x_eval_local;
    std::vector<UoiCellEstimate> estimates(cells.size());
    for (std::size_t m = 0; m < cells.size(); ++m) {
      const auto fit = uoi::solvers::logistic_irls_on_support(
          entry->x_train, entry->y_train, context.supports[cells[m]].indices(),
          options.solver);
      // Distributed held-out log loss: local sums reduced over the group.
      double acc[2] = {0.0, static_cast<double>(x_eval.rows())};
      if (x_eval.rows() > 0) {
        acc[0] = uoi::solvers::logistic_log_loss(x_eval, entry->y_eval_local,
                                                 fit.beta, fit.intercept) *
                 static_cast<double>(x_eval.rows());
      }
      context.task_comm.allreduce(std::span<double>(acc, 2), ReduceOp::kSum);
      estimates[m].loss = acc[1] > 0.0 ? acc[0] / acc[1] : 0.0;
      estimates[m].row.assign(fit.beta.begin(), fit.beta.end());
      estimates[m].row.push_back(fit.intercept);
    }
    return estimates;
  };

  UoiPipelineResult run =
      UoiPipeline(pipeline_settings(options), std::move(family))
          .run(comm, layout);

  static_cast<UoiPipelineRecord&>(out) = std::move(run.record);
  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.beta = aggregate_estimates(detail::winner_rows(run.winners, p),
                                   options.aggregation);
  double intercept_sum = 0.0;
  for (std::size_t k = 0; k < run.winners.rows(); ++k) {
    intercept_sum += run.winners(k, p);
  }
  model.intercept =
      intercept_sum / static_cast<double>(options.n_estimation_bootstraps);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  return out;
}

}  // namespace uoi::core
