#pragma once
// Distributed UoI_Logistic on the uoi::sim runtime — the same
// P_B x P_lambda x C decomposition as uoi_lasso_distributed, with the
// consensus logistic solver in the Solve slots and held-out log loss as
// the estimation criterion. Completes the "UoI family at scale" picture:
// every estimator in this library runs under the paper's parallel
// structure.

#include "core/uoi_pipeline.hpp"  // UoiParallelLayout, UoiPipelineRecord
#include "core/uoi_logistic.hpp"
#include "simcluster/comm.hpp"

namespace uoi::core {

/// The model plus the shared record (breakdown, selection counts,
/// quorum record).
struct UoiLogisticDistributedResult : UoiPipelineRecord {
  UoiLogisticResult model;
};

/// Collective over `comm`; `x`/`y` replicated as in uoi_lasso_distributed.
/// Matches the serial UoiLogistic's candidate supports given the same
/// options (identical resamples by construction). Recovers from rank
/// failures under default UoiRecoveryOptions (one shrink-and-resume
/// attempt; see UoiPipeline::run).
[[nodiscard]] UoiLogisticDistributedResult uoi_logistic_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLogisticOptions& options = {},
    const UoiParallelLayout& layout = {});

}  // namespace uoi::core
