#pragma once
// Distributed UoI_LASSO (paper §III, Fig. 1) on the uoi::sim runtime.
//
// Three-level parallelism, exactly the paper's decomposition:
//
//   P = P_B x P_lambda x C ranks
//   - P_B     bootstrap groups   (selection bootstraps round-robin over them)
//   - P_lambda lambda groups     (lambda indices round-robin over them)
//   - C       "ADMM cores" per task group: the bootstrap sample is
//             row-block-distributed over them and solved by the distributed
//             consensus LASSO-ADMM.
//
// The passes, the Reduce steps (count Allreduce + intersection threshold,
// loss Allreduce-min, winner Allreduce-sum) and recovery are the shared
// core::UoiPipeline; this driver supplies the lasso hooks (screened
// consensus chains in selection, consensus OLS refits in estimation).
//
// Given the same options/seed, the result matches the serial UoiLasso up to
// solver tolerance (identical resamples by construction).

#include "core/uoi_lasso.hpp"
#include "core/uoi_pipeline.hpp"  // UoiParallelLayout, UoiPipelineRecord
#include "simcluster/comm.hpp"

namespace uoi::core {

/// The model plus the shared record: breakdown, replicated selection
/// counts (q x p) and the quorum-degraded completion record.
struct UoiLassoDistributedResult : UoiPipelineRecord {
  UoiLassoResult model;  ///< same contents as the serial result
};

/// Runs distributed UoI_LASSO. Collective: every rank of `comm` must call it
/// with identical options/layout and the same (replicated) data views.
/// `x`/`y` are the full dataset; each task group's ranks extract only their
/// own row blocks of each bootstrap sample (in the paper the randomized
/// HDF5 distribution delivers those blocks; see uoi::io for that path).
///
/// Fault tolerance follows options.recovery (shrink-and-resume with
/// bit-identical selection counts, checkpoint/restart, bootstrap quorum);
/// see UoiPipeline::run.
[[nodiscard]] UoiLassoDistributedResult uoi_lasso_distributed(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView x,
    std::span<const double> y, const UoiLassoOptions& options = {},
    const UoiParallelLayout& layout = {});

}  // namespace uoi::core
