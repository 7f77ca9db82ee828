#pragma once
// The distributed UoI pipeline, written once for every model family.
//
// The paper's Algorithms 1 (UoI_LASSO) and 2 (UoI_VAR) are one pipeline,
// and the UoI framework (arXiv:1705.07585) defines it without reference to
// the model family: bootstrap selection over a lambda path, intersection,
// bootstrap estimation, a per-bootstrap pick, and a union. UoiPipeline runs
// that sequence on the uoi::sim runtime:
//
//   1. selection   (bootstrap k, lambda chain) cells over P_B * P_lambda task
//                  groups; each group fits the chain warm-started and the
//                  0/1 support indicators are staged, then committed
//                  atomically per chain into replicated selection counts;
//   2. intersection a cell's candidate support is every coefficient selected
//                  in at least ceil(intersection_fraction * B1) bootstraps
//                  (renormalized per cell under a degraded quorum);
//   3. estimation  (bootstrap, chain) cells again; each cell refits on its
//                  candidate support and scores on held-out data;
//   4. pick        an Allreduce-min of the loss matrix gives every rank each
//                  bootstrap's winning cell, and one Allreduce-sum assembles
//                  the B2 winner rows the family aggregates (the union).
//
// Everything around those steps also lives here, once: the per-attempt
// task-group split, TaskGrid cost seeding and calibration, checkpoint
// load/merge/save, the shrink-and-resume recovery loop with its bootstrap
// quorum, cache accounting, the tracer-derived timing breakdown and the
// admm.* / screen.* / solver_cache.* / recovery.* metrics. A family
// supplies only its shape, its lambda weights and two hooks: one fits a
// selection chain, the other refits and scores estimation cells.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/support_set.hpp"
#include "core/uoi_lasso.hpp"
#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "solvers/distributed_admm.hpp"
#include "solvers/screening.hpp"
#include "solvers/solver_cache.hpp"

namespace uoi::core {

/// How the ranks of a communicator are arranged (paper Fig. 3's
/// "P_B x P_lambda" configurations). C is derived: comm.size() / (pb * pl).
struct UoiParallelLayout {
  int bootstrap_groups = 1;  ///< P_B
  int lambda_groups = 1;     ///< P_lambda
};

/// Per-rank timing breakdown, mirroring the paper's runtime buckets.
/// Derived from the process-wide Tracer: communication / distribution /
/// data-I/O / Gram-setup are the rank's span totals over the phase,
/// computation is the wall-time remainder (clamped at zero), so the
/// buckets sum to the phase wall time.
struct UoiDistributedBreakdown {
  double computation_seconds = 0.0;
  double communication_seconds = 0.0;  ///< collectives (Allreduce-dominated)
  double distribution_seconds = 0.0;   ///< data movement into task groups
  double data_io_seconds = 0.0;        ///< dataset reads/writes (uoi::io)
  double gram_seconds = 0.0;  ///< Gram + Cholesky setup (solver-cache misses)
};

/// What every distributed driver reports beside its model.
struct UoiPipelineRecord {
  UoiDistributedBreakdown breakdown;  ///< this rank's timing
  /// Final merged selection-count matrix, one row per grid cell (bootstraps
  /// that selected coefficient i in cell j). Replicated; exposed so
  /// fault-injection tests can assert bit-identical counts against a
  /// fault-free run.
  uoi::linalg::Matrix selection_counts;
  /// Quorum-degraded completion record (see UoiRecoveryOptions::
  /// min_bootstrap_quorum). When `degraded` is set, the run exhausted its
  /// recovery budget during selection and finished on a partial bootstrap
  /// set: `achieved_quorum` is the smallest per-cell completed fraction,
  /// and `lost_cells` lists the abandoned (bootstrap, cell) pairs whose
  /// selection counts are missing from `selection_counts`. Candidate
  /// supports were thresholded against the achieved per-cell denominator
  /// instead of B1.
  bool degraded = false;
  double achieved_quorum = 1.0;
  std::vector<std::pair<std::size_t, std::size_t>> lost_cells;
};

/// Options every family carries under the same names.
struct UoiPipelineSettings {
  std::size_t n_selection_bootstraps = 0;   ///< B1
  std::size_t n_estimation_bootstraps = 0;  ///< B2
  double intersection_fraction = 1.0;
  double support_tolerance = 0.0;  ///< |beta_i| above this is selected
  std::uint64_t seed = 0;
  uoi::sched::SchedulePolicy schedule = uoi::sched::SchedulePolicy::kAuto;
  long solver_cache_mb = -1;
  UoiRecoveryOptions recovery;  ///< defaults for families without the knob
};

template <class Options>
[[nodiscard]] UoiPipelineSettings pipeline_settings(const Options& options) {
  UoiPipelineSettings settings{
      options.n_selection_bootstraps, options.n_estimation_bootstraps,
      options.intersection_fraction,  options.support_tolerance,
      options.seed,                   options.schedule,
      options.solver_cache_mb,        {}};
  if constexpr (requires { options.recovery; }) {
    settings.recovery = options.recovery;
  }
  return settings;
}

/// The resampling fields of a row-resampled family's options, as the
/// UoiLassoOptions that selection_bootstrap_indices / estimation_split take.
template <class Options>
[[nodiscard]] UoiLassoOptions resampling_options(const Options& options) {
  UoiLassoOptions out;
  out.n_selection_bootstraps = options.n_selection_bootstraps;
  out.n_estimation_bootstraps = options.n_estimation_bootstraps;
  out.estimation_train_fraction = options.estimation_train_fraction;
  out.seed = options.seed;
  return out;
}

/// What a family hook sees of the pass attempt it runs in.
class UoiPassContext {
 public:
  UoiPassContext(uoi::sim::Comm& task_comm, int group_size, int group_rank,
                 int trace_rank, uoi::solvers::AdmmTally& admm,
                 uoi::solvers::ScreenStats& screen,
                 const std::vector<SupportSet>& supports,
                 uoi::solvers::BootstrapCache& cache, int pass,
                 std::uint64_t& setup_charged, std::uint64_t& setup_amortized)
      : task_comm(task_comm), group_size(group_size), group_rank(group_rank),
        trace_rank(trace_rank), admm(admm), screen(screen),
        supports(supports), cache_(cache), pass_(pass),
        setup_charged_(setup_charged), setup_amortized_(setup_amortized) {}

  uoi::sim::Comm& task_comm;  ///< this rank's task group
  int group_size;             ///< C: ranks in the task group
  int group_rank;             ///< this rank within the group
  int trace_rank;             ///< global rank the tracer keys spans by
  uoi::solvers::AdmmTally& admm;      ///< add every solve's counters here
  uoi::solvers::ScreenStats& screen;  ///< add every chain's stats here
  /// Candidate supports, one per grid cell (estimation pass only).
  const std::vector<SupportSet>& supports;

  /// This pass's per-bootstrap cache entry for `k`, built by `build` on a
  /// miss. Entries must size themselves from the global problem shape: a
  /// build runs collectives on the task group, so every group rank has to
  /// make the same hit/miss/evict decision.
  template <class Entry, class Build>
  std::shared_ptr<Entry> cached(std::size_t k, Build&& build) {
    const std::uint64_t hits = cache_.stats().hits;
    auto entry =
        cache_.get_or_build<Entry>(pass_, k, std::forward<Build>(build));
    last_lookup_hit_ = cache_.stats().hits > hits;
    return entry;
  }

  /// Credits a cached solver's setup FLOPs to the last cached() lookup:
  /// charged when that lookup built the entry, amortized when it reused it.
  void charge_setup(std::uint64_t flops) {
    (last_lookup_hit_ ? setup_amortized_ : setup_charged_) += flops;
  }

 private:
  uoi::solvers::BootstrapCache& cache_;
  int pass_;
  std::uint64_t& setup_charged_;
  std::uint64_t& setup_amortized_;
  bool last_lookup_hit_ = false;
};

/// One estimation cell's result.
struct UoiCellEstimate {
  double loss = 0.0;  ///< held-out score; the lowest wins the bootstrap
  /// Packed winner row (UoiFamily::winner_width): this rank's share of
  /// the sum-reduced winner matrix should the cell win.
  uoi::linalg::Vector row;
};

/// What a model family supplies to the pipeline.
struct UoiFamily {
  std::string name;  ///< log field; trace span "uoi-<name>-computation"
  std::size_t n_coefficients = 0;  ///< width of a selection row
  std::size_t winner_width = 0;    ///< width of a packed winner row
  /// Penalty weight of each grid cell, in cell order: seeds the cost model
  /// and is what a checkpoint records as its lambda grid. The cell count
  /// q is its size.
  std::vector<double> cell_lambdas;
  double pass_seconds_seed = 0.0;  ///< cost-model estimate of one pass
  std::size_t consensus_interval = 0;  ///< as requested (exported resolved)
  /// Resolved screening mode; screen.* metrics are exported when set.
  std::optional<uoi::solvers::ScreenMode> screen_mode;
  std::uint64_t fingerprint = 0;  ///< checkpoint identity of the selection
  /// True when each group rank returns a disjoint slice of a winner row
  /// (VAR: its own equations); false when every group rank returns the
  /// same row, which task rank 0 alone then deposits.
  bool partitioned_winners = false;

  /// Fits the warm-started chain of `cells` (the still-missing cells of one
  /// (bootstrap k, chain) task, in grid order) and returns one coefficient
  /// row per cell. Collective over the task group; rows are read on task
  /// rank 0.
  std::function<uoi::linalg::Matrix(UoiPassContext&, std::size_t k,
                                    std::span<const std::size_t> cells)>
      select;
  /// Refits every cell of one (bootstrap k, chain) task on its candidate
  /// support (context.supports[cell]) and scores it. Collective over the
  /// task group; returns one estimate per cell.
  std::function<std::vector<UoiCellEstimate>(
      UoiPassContext&, std::size_t k, std::span<const std::size_t> cells)>
      estimate;
};

/// The pipeline's output: the shared record plus the per-model pieces a
/// family folds into its result.
struct UoiPipelineResult {
  UoiPipelineRecord record;
  std::vector<SupportSet> candidate_supports;  ///< one per grid cell
  std::vector<std::size_t> chosen_support_per_bootstrap;
  std::vector<double> best_loss_per_bootstrap;
  /// B2 x winner_width winning rows, replicated; the family aggregates them.
  uoi::linalg::Matrix winners;
  std::uint64_t total_flops = 0;  ///< summed AdmmTally::local_flops
};

class UoiPipeline {
 public:
  UoiPipeline(UoiPipelineSettings settings, UoiFamily family);

  /// Runs selection, intersection, estimation and the pick. Collective:
  /// every rank of `comm` calls it with identical settings, family shape
  /// and layout.
  ///
  /// Fault tolerance (settings.recovery): when a rank dies, survivors
  /// detect it at their next synchronization point, shrink the
  /// communicator, merge every survivor's staged selection counts, and
  /// resume, recomputing only the (bootstrap, chain) cells the dead rank's
  /// group had not committed. Chains commit atomically and replay cold, so
  /// recomputed cells retrace a fault-free run's ADMM trajectories and the
  /// selection counts are bit-identical. Estimation is redone wholesale.
  /// With `checkpoint_path` set, merged selection progress persists to disk
  /// and a compatible checkpoint is resumed on startup. After
  /// `max_recovery_attempts` failures the RankFailedError propagates,
  /// unless `min_bootstrap_quorum` lets selection finish degraded.
  [[nodiscard]] UoiPipelineResult run(uoi::sim::Comm& comm,
                                      const UoiParallelLayout& layout);

 private:
  UoiPipelineSettings settings_;
  UoiFamily family_;
};

}  // namespace uoi::core
