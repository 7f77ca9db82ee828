#pragma once
// Distributed UoI_ElasticNet — the last member of the UoI family to get a
// distributed twin. Identical structure to uoi_lasso_distributed with the
// 2-D (lambda, l1_ratio) selection grid flattened into the task
// assignment: cell c = r * q + j is handled by the lambda-group
// c % P_lambda.

#include "core/uoi_elastic_net.hpp"
#include "core/uoi_pipeline.hpp"  // UoiParallelLayout, UoiPipelineRecord
#include "simcluster/comm.hpp"

namespace uoi::core {

/// The model plus the shared record (breakdown, selection counts over the
/// flattened cells, quorum record).
struct UoiElasticNetDistributedResult : UoiPipelineRecord {
  UoiElasticNetResult model;
};

/// Collective over `comm`; data replicated as in the other drivers.
/// Recovers from rank failures under default UoiRecoveryOptions (one
/// shrink-and-resume attempt; see UoiPipeline::run).
/// Matches the serial UoiElasticNet's candidate supports given the same
/// options (identical resamples; same consensus-vs-serial tolerance
/// caveats as UoI_LASSO).
[[nodiscard]] UoiElasticNetDistributedResult uoi_elastic_net_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiElasticNetOptions& options = {},
    const UoiParallelLayout& layout = {});

}  // namespace uoi::core
