#include "core/uoi_elastic_net_distributed.hpp"

#include <utility>
#include <vector>

#include "core/distributed_common.hpp"
#include "sched/cost_model.hpp"
#include "solvers/lambda_grid.hpp"
#include "solvers/screening.hpp"
#include "support/error.hpp"

namespace uoi::core {

UoiElasticNetDistributedResult uoi_elastic_net_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiElasticNetOptions& options,
    const UoiParallelLayout& layout) {
  UOI_CHECK_DIMS(x.rows() == y.size(), "UoI_ElasticNet: X rows != y size");
  UoiElasticNetDistributedResult out;
  UoiElasticNetResult& model = out.model;
  model.l1_ratios = options.l1_ratios;
  model.lambdas = uoi::solvers::lambda_grid_for(
      x, y, options.n_lambdas, options.lambda_min_ratio);
  const std::size_t q = model.lambdas.size();
  const std::size_t n_cells = q * model.l1_ratios.size();

  // The (ratio, lambda) grid is flattened into cells c = r * q + j; a
  // chain's lambda1 descends within a ratio block and jumps up at ratio
  // boundaries, which resets the chain's screening state (screening.hpp).
  uoi::solvers::ScreenOptions screen = options.screen;
  screen.mode = uoi::solvers::resolve_screen_mode(options.screen.mode);
  const detail::LinearProblem problem{
      x, y, resampling_options(options), options.admm, screen,
      options.criterion, [&](std::size_t cell) {
        const double lambda = model.lambdas[cell % q];
        const double ratio = model.l1_ratios[cell / q];
        return std::pair{lambda * ratio, lambda * (1.0 - ratio)};
      }};
  UoiFamily family = detail::linear_family(problem);
  family.name = "elastic-net";
  // Each cell's cost weight is its lambda, so LPT sees the real skew.
  family.cell_lambdas.resize(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    family.cell_lambdas[cell] = model.lambdas[cell % q];
  }
  family.pass_seconds_seed = sched::lasso_pass_seconds_estimate(
      x.rows(), x.cols(), options.n_selection_bootstraps,
      options.n_estimation_bootstraps, n_cells, options.admm.max_iterations,
      comm.size());
  UoiPipelineResult run =
      UoiPipeline(pipeline_settings(options), std::move(family))
          .run(comm, layout);

  static_cast<UoiPipelineRecord&>(out) = std::move(run.record);
  model.candidate_supports = std::move(run.candidate_supports);
  model.chosen_support_per_bootstrap =
      std::move(run.chosen_support_per_bootstrap);
  model.best_loss_per_bootstrap = std::move(run.best_loss_per_bootstrap);
  model.beta = aggregate_estimates(detail::winner_rows(run.winners, x.cols()),
                                   options.aggregation);
  model.support = SupportSet::from_beta(model.beta, options.support_tolerance);
  return out;
}

}  // namespace uoi::core
