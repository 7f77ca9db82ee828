#include "core/uoi_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/distributed_common.hpp"
#include "sched/cost_model.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_grid.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace uoi::core {

using uoi::linalg::Matrix;
using uoi::linalg::Vector;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

namespace {

/// One run of the pipeline: the replicated selection state, the scheduler
/// state and the accounting that outlive a single pass attempt.
class PipelineRun {
 public:
  PipelineRun(const UoiPipelineSettings& settings, const UoiFamily& family,
              Comm& comm, const UoiParallelLayout& layout);

  UoiPipelineResult run();

 private:
  void load_checkpoint();
  void save(Comm& c);
  void merge(Comm& c);
  template <class Pass>
  void in_task_groups(Comm& c, int pass, Pass run_pass);
  void select(Comm& c, UoiPassContext& context,
              const sched::GroupInfo& group_info);
  void intersect();
  void calibrate_estimation(Comm& c, int group_rank);
  void estimate(Comm& c, UoiPassContext& context,
                const sched::GroupInfo& group_info);
  void recover(bool selection_complete, int& attempts_left);
  void finish();

  [[nodiscard]] double intersection_threshold(double bootstraps) const {
    return std::max(1.0, std::ceil(s_.intersection_fraction * bootstraps -
                                   1e-12));
  }

  const UoiPipelineSettings& s_;
  const UoiFamily& f_;
  Comm& comm_;
  const int pb_;
  const int pl_;
  int n_groups_;
  const std::size_t q_;
  const std::size_t b1_;
  const std::size_t b2_;
  const std::size_t p_;
  const bool checkpointing_;
  const int trace_rank_;

  // ---- Scheduler state ----
  // Chains are fixed at entry (n_chains = the entry layout's P_lambda,
  // chain c owns {j : j % n_chains == c}) and survive every shrink, so a
  // replayed cell rebuilds the exact warm-start trajectory of a fault-free
  // run. The group count is what shrinks: survivors regroup into
  // min(P_B * P_lambda, alive) groups of near-even width.
  const sched::SchedulePolicy policy_;
  const std::size_t n_chains_;
  const sched::TaskGrid selection_grid_;
  const sched::TaskGrid estimation_grid_;
  std::vector<double> selection_costs_;
  std::vector<double> estimation_costs_;
  sched::PassStats selection_stats_;
  bool estimation_costs_calibrated_ = false;

  // ---- Selection state ----
  // `*_merged` is replicated and globally consistent; `*_local` holds this
  // rank's contributions not yet committed by a merge. A (bootstrap, cell)
  // count and its done flag live on the same rank (the owning group's task
  // rank 0) until merged, so a rank death loses them together — `done`
  // never claims counts that died with a failed rank.
  Matrix counts_merged_;
  Matrix done_merged_;
  Matrix counts_local_;
  Matrix done_local_;
  /// Per-cell completed-bootstrap counts of a quorum-degraded run; the
  /// intersection thresholds renormalize to these instead of B1.
  std::vector<double> degraded_achieved_;

  // ---- Accounting ----
  support::Stopwatch phase_watch_;
  double phase_start_seconds_;
  support::TraceTotals trace_before_;
  const std::size_t cache_budget_;
  uoi::solvers::AdmmTally admm_;
  uoi::solvers::ScreenStats screen_;
  std::uint64_t setup_charged_ = 0;
  std::uint64_t setup_amortized_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  uoi::sim::CommStats folded_;
  uoi::sim::RecoveryStats folded_rec_;

  std::optional<Comm> owned_;  // current shrunk communicator, if any
  Comm* active_;
  UoiPipelineResult out_;
};

PipelineRun::PipelineRun(const UoiPipelineSettings& settings,
                         const UoiFamily& family, Comm& comm,
                         const UoiParallelLayout& layout)
    : s_(settings),
      f_(family),
      comm_(comm),
      pb_(layout.bootstrap_groups),
      pl_(layout.lambda_groups),
      n_groups_(pb_ * pl_),
      q_(family.cell_lambdas.size()),
      b1_(settings.n_selection_bootstraps),
      b2_(settings.n_estimation_bootstraps),
      p_(family.n_coefficients),
      checkpointing_(!settings.recovery.checkpoint_path.empty()),
      trace_rank_(comm.global_rank()),
      policy_(sched::resolve_policy(settings.schedule)),
      n_chains_(std::max<std::size_t>(
          1, std::min(static_cast<std::size_t>(pl_), q_))),
      selection_grid_(b1_, q_, n_chains_, settings.seed),
      estimation_grid_(b2_, q_, n_chains_, settings.seed + 1),
      selection_costs_(sched::seeded_costs(selection_grid_,
                                           family.cell_lambdas,
                                           family.pass_seconds_seed)),
      estimation_costs_(sched::seeded_costs(estimation_grid_,
                                            family.cell_lambdas,
                                            family.pass_seconds_seed)),
      counts_merged_(q_, p_, 0.0),
      done_merged_(b1_, q_, 0.0),
      counts_local_(q_, p_, 0.0),
      done_local_(b1_, q_, 0.0),
      // Bucket attribution is tracer-based: spans are keyed by this rank's
      // *global* rank, so collectives on split/dup/shrunk communicators
      // are all accounted.
      phase_start_seconds_(support::Tracer::instance().now_seconds()),
      trace_before_(support::Tracer::instance().totals(trace_rank_)),
      cache_budget_(
          uoi::solvers::resolve_solver_cache_bytes(settings.solver_cache_mb)),
      active_(&comm) {
  UOI_CHECK(pb_ >= 1 && pl_ >= 1, "layout group counts must be >= 1");
  UOI_CHECK(comm.size() >= n_groups_,
            "communicator smaller than P_B * P_lambda task groups");
}

void PipelineRun::load_checkpoint() {
  if (!checkpointing_) return;
  // Every rank reads the same stable file (in-process cluster: one
  // filesystem), so the restored state is replicated by construction.
  auto restored =
      try_load_checkpoint(s_.recovery.checkpoint_path, f_.fingerprint);
  if (!restored) return;
  const bool shape_ok =
      restored->lambdas == f_.cell_lambdas && restored->counts.rows() == q_ &&
      restored->counts.cols() == p_ &&
      (restored->done.rows() == 0 ||
       (restored->done.rows() == b1_ && restored->done.cols() == q_)) &&
      restored->completed_bootstraps <= b1_;
  if (!shape_ok) return;
  counts_merged_ = std::move(restored->counts);
  if (restored->done.rows() != 0) {
    done_merged_ = std::move(restored->done);
  } else {
    for (std::size_t k = 0; k < restored->completed_bootstraps; ++k) {
      for (std::size_t j = 0; j < q_; ++j) done_merged_(k, j) = 1.0;
    }
  }
  ++comm_.mutable_recovery_stats().checkpoint_resumes;
  UOI_LOG_INFO.field("family", f_.name)
          .field("path", s_.recovery.checkpoint_path)
      << "resumed selection progress from checkpoint";
}

void PipelineRun::save(Comm& c) {
  if (!checkpointing_ || c.rank() != 0) return;
  // A degraded run marks its lost cells done so the scheduler skips them;
  // persisting that state would poison a later full-quorum resume into
  // silently inheriting the losses.
  if (out_.record.degraded) return;
  SelectionCheckpoint checkpoint;
  checkpoint.fingerprint = f_.fingerprint;
  checkpoint.lambdas = f_.cell_lambdas;
  checkpoint.counts = counts_merged_;
  checkpoint.done = done_merged_;
  checkpoint.completed_bootstraps = checkpoint.completed_prefix();
  save_checkpoint(s_.recovery.checkpoint_path, checkpoint);
}

// Commits every rank's unmerged contributions into the replicated merged
// state. Collective over `c`. Atomic with respect to rank failures: the
// fused allreduce either completes on every survivor or raises on every
// survivor before the commit, so locals are never half-applied.
void PipelineRun::merge(Comm& c) {
  std::vector<double> buffer(counts_local_.size() + done_local_.size());
  std::copy(counts_local_.data(), counts_local_.data() + counts_local_.size(),
            buffer.begin());
  std::copy(done_local_.data(), done_local_.data() + done_local_.size(),
            buffer.begin() +
                static_cast<std::ptrdiff_t>(counts_local_.size()));
  c.allreduce(std::span<double>(buffer), ReduceOp::kSum);
  for (std::size_t i = 0; i < counts_merged_.size(); ++i) {
    counts_merged_.data()[i] += buffer[i];
  }
  for (std::size_t i = 0; i < done_merged_.size(); ++i) {
    done_merged_.data()[i] = std::min(
        1.0, done_merged_.data()[i] + buffer[counts_merged_.size() + i]);
  }
  std::fill(counts_local_.data(), counts_local_.data() + counts_local_.size(),
            0.0);
  std::fill(done_local_.data(), done_local_.data() + done_local_.size(), 0.0);
}

// Runs one pass attempt, (this->*run_pass)(c, context, group_info), in
// this attempt's task groups. The group communicator and the cache live
// for exactly one attempt: cache entries hold views of the communicator,
// and a shrink must tear both down so replayed cells never observe
// pre-shrink entries. The cache and traffic counters are folded on the
// failure path too.
//
// A failed attempt revokes its group communicator before unwinding. On the
// socket backend a dying rank's barrier entry can reach one survivor and
// not another, so one group member may pass a barrier the other leaves
// with RankFailedError; the revoke wakes the member now blocked in the
// group's next collective, and the shrink on `c` collects both.
template <class Pass>
void PipelineRun::in_task_groups(Comm& c, int pass, Pass run_pass) {
  const auto tl =
      detail::make_task_layout(c.rank(), c.size(), n_groups_, /*pl=*/1);
  Comm task_comm = c.split(tl.task_group, c.rank());
  const sched::GroupInfo group_info{n_groups_, tl.task_group, tl.task_rank,
                                    pb_, pl_};
  uoi::solvers::BootstrapCache cache(cache_budget_);
  UoiPassContext context(task_comm, tl.c_ranks, tl.task_rank, trace_rank_,
                         admm_, screen_, out_.candidate_supports, cache, pass,
                         setup_charged_, setup_amortized_);
  const auto fold = [&] {
    cache_hits_ += cache.stats().hits;
    cache_misses_ += cache.stats().misses;
    cache_evictions_ += cache.stats().evictions;
    folded_ += task_comm.stats();
    folded_rec_ += task_comm.recovery_stats();
  };
  try {
    (this->*run_pass)(c, context, group_info);
  } catch (const uoi::sim::RankFailedError&) {
    task_comm.revoke();
    fold();
    throw;
  }
  fold();
}

void PipelineRun::select(Comm& c, UoiPassContext& context,
                         const sched::GroupInfo& group_info) {
  // One cell = (bootstrap k, chain): the group fits the chain's
  // still-missing cells warm-started in grid order. Supports are staged
  // and committed only once the whole chain finished: a failure mid-chain
  // must leave no partial contribution, so the chain reruns cold —
  // replaying exactly the warm-start trajectory a fault-free run produces.
  const auto execute = [&](const sched::TaskCell& task) {
    const std::size_t k = task.bootstrap;
    std::vector<std::size_t> chain;
    for (std::size_t j : selection_grid_.chain_lambdas(task.chain)) {
      if (done_merged_(k, j) == 0.0) chain.push_back(j);
    }
    if (chain.empty()) return;
    const Matrix betas = f_.select(context, k, chain);
    if (context.group_rank != 0) return;
    for (std::size_t m = 0; m < chain.size(); ++m) {
      auto dest = counts_local_.row(chain[m]);
      const auto beta = betas.row(m);
      for (std::size_t i = 0; i < p_; ++i) {
        if (std::abs(beta[i]) > s_.support_tolerance) dest[i] += 1.0;
      }
      done_local_(k, chain[m]) = 1.0;
    }
  };

  // Checkpoint epochs: `interval` bootstraps per scheduled pass, with a
  // merge + save between epochs (single epoch when not checkpointing).
  // Placement is planned once over every pending cell of the pass and
  // filtered per epoch: planning tiny epochs individually would let the
  // LPT greedy put each one onto group 0 and starve the rest.
  const std::size_t interval =
      checkpointing_
          ? std::max<std::size_t>(1, s_.recovery.checkpoint_interval)
          : b1_;
  std::vector<std::size_t> pass_cells;
  for (std::size_t k = 0; k < b1_; ++k) {
    for (std::size_t chain = 0; chain < n_chains_; ++chain) {
      const auto cells = selection_grid_.chain_lambdas(chain);
      if (std::any_of(cells.begin(), cells.end(), [&](std::size_t j) {
            return done_merged_(k, j) == 0.0;
          })) {
        pass_cells.push_back(selection_grid_.cell_id(k, chain));
      }
    }
  }
  const auto placement = sched::plan_placement(
      policy_, selection_grid_, pass_cells, selection_costs_, group_info,
      sched::group_widths(c.size(), n_groups_));
  sched::PassStats call_stats;
  for (std::size_t k0 = 0; k0 < b1_; k0 += interval) {
    const std::size_t k1 = std::min(b1_, k0 + interval);
    auto epoch = placement;
    std::size_t epoch_cells = 0;
    for (auto& queue : epoch) {
      std::erase_if(queue, [&](std::size_t id) {
        const std::size_t k = selection_grid_.cell(id).bootstrap;
        return k < k0 || k >= k1;
      });
      epoch_cells += queue.size();
    }
    if (epoch_cells > 0) {
      const auto pass = sched::run_pass(
          c, context.task_comm, group_info, policy_, selection_grid_,
          epoch, selection_costs_, s_.recovery.retry_options(), execute);
      sched::accumulate_stats(call_stats, pass);
    }
    if (checkpointing_ && k1 < b1_) {
      merge(c);
      save(c);
    }
  }
  merge(c);  // the final commit doubles as the intersection's Reduce
  save(c);
  sched::accumulate_stats(selection_stats_, call_stats);
  sched::export_pass_metrics(trace_rank_, group_info, policy_, call_stats);
}

// The (possibly soft) intersection of eq. 3 from the merged counts;
// identical on every rank. A degraded run thresholds each cell against its
// achieved bootstrap count, so a coefficient's bar is not inflated by
// bootstraps that were never computed.
void PipelineRun::intersect() {
  const double base_threshold =
      intersection_threshold(static_cast<double>(b1_));
  out_.candidate_supports.clear();
  out_.candidate_supports.reserve(q_);
  for (std::size_t j = 0; j < q_; ++j) {
    const double threshold =
        out_.record.degraded ? intersection_threshold(degraded_achieved_[j])
                             : base_threshold;
    std::vector<std::size_t> selected;
    const auto row = counts_merged_.row(j);
    for (std::size_t i = 0; i < p_; ++i) {
      if (row[i] >= threshold) selected.push_back(i);
    }
    out_.candidate_supports.emplace_back(std::move(selected));
  }
}

// Refines the estimation placement once from the measured selection pass:
// the Allreduce-max replicates every group's per-cell seconds, so all ranks
// derive the identical calibrated plan.
void PipelineRun::calibrate_estimation(Comm& c, int group_rank) {
  if (policy_ == sched::SchedulePolicy::kStatic ||
      estimation_costs_calibrated_) {
    return;
  }
  if (selection_stats_.cell_seconds.size() != selection_grid_.n_cells()) {
    selection_stats_.cell_seconds.assign(selection_grid_.n_cells(), 0.0);
  }
  c.allreduce(std::span<double>(selection_stats_.cell_seconds),
              ReduceOp::kMax);
  const auto calibration = sched::calibrate(
      selection_grid_, selection_costs_, selection_stats_.cell_seconds);
  sched::apply_calibration(estimation_grid_, calibration,
                           std::span<double>(estimation_costs_));
  // Estimation refits on each cell's candidate support, so reweight the
  // per-chain costs by the survivor counts of the selection pass
  // (replicated: the supports derive from the merged counts).
  std::vector<double> survivors(q_, 0.0);
  for (std::size_t j = 0; j < q_; ++j) {
    survivors[j] =
        static_cast<double>(out_.candidate_supports[j].indices().size());
  }
  sched::apply_survivor_weights(estimation_grid_, survivors,
                                std::span<double>(estimation_costs_));
  if (group_rank == 0) {
    support::MetricsRegistry::instance().set(
        trace_rank_, "sched.placement_error", calibration.mean_abs_rel_error);
  }
  estimation_costs_calibrated_ = true;
}

void PipelineRun::estimate(Comm& c, UoiPassContext& context,
                           const sched::GroupInfo& group_info) {
  calibrate_estimation(c, context.group_rank);

  Matrix losses(b2_, q_, std::numeric_limits<double>::infinity());
  // computed[k * q + j] exists only for cells this group computed.
  std::vector<Vector> computed(b2_ * q_);
  const auto execute = [&](const sched::TaskCell& task) {
    const std::size_t k = task.bootstrap;
    const auto cells = estimation_grid_.chain_lambdas(task.chain);
    auto estimates = f_.estimate(context, k, cells);
    for (std::size_t m = 0; m < cells.size(); ++m) {
      losses(k, cells[m]) = estimates[m].loss;
      computed[k * q_ + cells[m]] = std::move(estimates[m].row);
    }
  };
  std::vector<std::size_t> all_cells(estimation_grid_.n_cells());
  for (std::size_t i = 0; i < all_cells.size(); ++i) all_cells[i] = i;
  const auto placement = sched::plan_placement(
      policy_, estimation_grid_, all_cells, estimation_costs_, group_info,
      sched::group_widths(c.size(), n_groups_));
  const auto pass = sched::run_pass(
      c, context.task_comm, group_info, policy_, estimation_grid_,
      placement, estimation_costs_, s_.recovery.retry_options(), execute);
  sched::export_pass_metrics(trace_rank_, group_info, policy_, pass);

  // Share all losses; every rank then knows each bootstrap's winner.
  c.allreduce(std::span<double>(losses.data(), losses.size()),
              ReduceOp::kMin);
  out_.chosen_support_per_bootstrap.assign(b2_, 0);
  out_.best_loss_per_bootstrap.assign(b2_, 0.0);
  // winners(k, :) is assembled globally: the owning group deposits its
  // estimate (task rank 0 alone, or every rank its disjoint slice), then
  // one sum-reduction replicates the matrix. Every element has exactly
  // one nonzero contributor, so the sum is exact and the aggregation is
  // placement-independent (fixed bootstrap order).
  const bool deposits = f_.partitioned_winners || context.group_rank == 0;
  Matrix winners(b2_, f_.winner_width, 0.0);
  for (std::size_t k = 0; k < b2_; ++k) {
    std::size_t best_j = 0;
    double best_loss = losses(k, 0);
    for (std::size_t j = 1; j < q_; ++j) {
      if (losses(k, j) < best_loss) {
        best_loss = losses(k, j);
        best_j = j;
      }
    }
    out_.chosen_support_per_bootstrap[k] = best_j;
    out_.best_loss_per_bootstrap[k] = best_loss;
    const Vector& row = computed[k * q_ + best_j];
    if (deposits && !row.empty()) {
      std::copy(row.begin(), row.end(), winners.row(k).begin());
    }
  }
  c.allreduce(std::span<double>(winners.data(), winners.size()),
              ReduceOp::kSum);
  out_.winners = std::move(winners);

  std::uint64_t flops = admm_.local_flops;
  c.allreduce(std::span<std::uint64_t>(&flops, 1), ReduceOp::kSum);
  out_.total_flops = flops;
}

// Called from the RankFailedError handler of the attempt loop: shrinks,
// regroups and merges, or rethrows when the recovery budget is spent.
// Selection resumes cell-wise; estimation is redone wholesale (its fits are
// cold, so a redo is deterministic).
void PipelineRun::recover(bool selection_complete, int& attempts_left) {
  const UoiRecoveryOptions& recovery = s_.recovery;
  const bool out_of_attempts = attempts_left-- <= 0;
  // Quorum-degraded completion is a selection-phase escape hatch only:
  // estimation fits are cold recomputes, so exhausting the budget there
  // still rethrows.
  const bool try_degraded = out_of_attempts && !selection_complete &&
                            recovery.min_bootstrap_quorum < 1.0;
  if (out_of_attempts && !try_degraded) {
    // Give up symmetrically: uneven groups detect a death at different
    // collectives, so a rank that exits here could leave a peer blocked in
    // a comm-wide barrier forever. Revoking wakes it to follow.
    active_->revoke();
    throw;
  }
  UOI_LOG_WARN.field("family", f_.name)
          .field("attempts_left", attempts_left)
          .field("phase", selection_complete ? "estimation" : "selection")
      << "rank failure in a distributed UoI fit; shrinking and resuming";
  // Survivors converge here (any rank still blocked in a collective of the
  // revoked communicator raises and follows); the shrink is collective over
  // the alive ranks only.
  Comm next = active_->shrink();
  if (owned_.has_value()) {
    folded_ += owned_->stats();
    folded_rec_ += owned_->recovery_stats();
  }
  owned_ = std::move(next);
  active_ = &*owned_;
  // Regroup the survivors: as many groups as the entry layout had, as long
  // as each keeps at least one rank. Uneven widths are fine and the chain
  // structure is untouched, so replays stay bit-identical.
  n_groups_ = std::min(n_groups_, active_->size());
  // Commit what every survivor already finished, then account the cells
  // that died with the failed rank and must be redistributed.
  merge(*active_);
  if (!try_degraded) {
    if (!selection_complete) {
      folded_rec_.cells_recovered += static_cast<std::uint64_t>(
          std::count(done_merged_.data(),
                     done_merged_.data() + done_merged_.size(), 0.0));
    }
    save(*active_);
    return;
  }
  // Decide from the replicated done matrix, so every survivor takes the
  // same branch. The achieved counts are captured BEFORE the lost cells
  // are marked done below.
  degraded_achieved_.assign(q_, 0.0);
  for (std::size_t k = 0; k < b1_; ++k) {
    for (std::size_t j = 0; j < q_; ++j) {
      degraded_achieved_[j] += done_merged_(k, j);
    }
  }
  double min_fraction = 1.0;
  for (std::size_t j = 0; j < q_; ++j) {
    min_fraction = std::min(min_fraction, degraded_achieved_[j] /
                                              static_cast<double>(b1_));
  }
  if (min_fraction < recovery.min_bootstrap_quorum) {
    active_->revoke();
    throw;
  }
  // Abandon the missing cells: record them, then mark them done so the
  // resumed selection pass schedules nothing for them. The checkpoint save
  // is skipped (see `save`), so the abandonment never leaks into a later
  // full-quorum run.
  UoiPipelineRecord& record = out_.record;
  for (std::size_t k = 0; k < b1_; ++k) {
    for (std::size_t j = 0; j < q_; ++j) {
      if (done_merged_(k, j) == 0.0) {
        record.lost_cells.emplace_back(k, j);
        done_merged_(k, j) = 1.0;
      }
    }
  }
  record.degraded = true;
  record.achieved_quorum = min_fraction;
  UOI_LOG_WARN.field("family", f_.name)
          .field("achieved_quorum", min_fraction)
          .field("cells_lost",
                 static_cast<std::uint64_t>(record.lost_cells.size()))
      << "recovery budget exhausted; completing selection degraded under "
         "bootstrap quorum";
}

// Folds every child communicator's traffic into the caller's accounting (so
// Cluster::run_collect_reports sees the consensus Allreduces and the
// recovery activity), derives the timing breakdown and exports the metrics.
void PipelineRun::finish() {
  UoiPipelineRecord& record = out_.record;
  record.selection_counts = counts_merged_;
  if (owned_.has_value()) {
    folded_ += owned_->stats();
    folded_rec_ += owned_->recovery_stats();
  }
  comm_.mutable_stats() += folded_;
  comm_.mutable_recovery_stats() += folded_rec_;

  // Tracer-derived bucket totals over the phase. Computation is the
  // remainder (clamped at zero against scheduler jitter), so the buckets
  // sum to the phase wall time by construction.
  auto& tracer = support::Tracer::instance();
  support::TraceTotals delta = tracer.totals(trace_rank_);
  delta -= trace_before_;
  UoiDistributedBreakdown& b = record.breakdown;
  b.communication_seconds =
      delta.seconds(support::TraceCategory::kCommunication);
  b.distribution_seconds = delta.seconds(support::TraceCategory::kDistribution);
  b.data_io_seconds = delta.seconds(support::TraceCategory::kDataIo);
  b.gram_seconds = delta.seconds(support::TraceCategory::kGram);
  b.computation_seconds =
      std::max(0.0, phase_watch_.seconds() - b.communication_seconds -
                        b.distribution_seconds - b.data_io_seconds -
                        b.gram_seconds);
  tracer.record("uoi-" + f_.name + "-computation",
                support::TraceCategory::kComputation, trace_rank_,
                phase_start_seconds_, b.computation_seconds);

  auto& metrics = support::MetricsRegistry::instance();
  const auto add = [&](std::string_view name, double value) {
    metrics.add(trace_rank_, name, value);
  };
  add("admm.iterations", static_cast<double>(admm_.iterations));
  add("admm.rho_updates", static_cast<double>(admm_.rho_updates));
  add("admm.allreduce_calls", static_cast<double>(admm_.allreduce_calls));
  add("admm.allreduce_bytes", static_cast<double>(admm_.allreduce_bytes));
  add("admm.consensus_rounds", static_cast<double>(admm_.consensus_rounds));
  add("admm.lazy_iterations", static_cast<double>(admm_.lazy_iterations));
  add("admm.consensus_interval",
      static_cast<double>(
          uoi::solvers::resolve_consensus_interval(f_.consensus_interval)));
  if (f_.screen_mode.has_value()) {
    metrics.set(trace_rank_, "screen.mode",
                static_cast<double>(static_cast<int>(*f_.screen_mode)));
    add("screen.lambdas", static_cast<double>(screen_.lambdas));
    add("screen.survivors", static_cast<double>(screen_.survivors));
    add("screen.kkt_violations", static_cast<double>(screen_.kkt_violations));
    add("screen.kkt_rounds", static_cast<double>(screen_.kkt_rounds));
    add("screen.gram_cols_saved",
        static_cast<double>(screen_.gram_cols_saved));
    add("screen.canonical_solves",
        static_cast<double>(screen_.canonical_solves));
    add("screen.total_columns", static_cast<double>(screen_.total_columns));
  }
  add("solver_cache.hits", static_cast<double>(cache_hits_));
  add("solver_cache.misses", static_cast<double>(cache_misses_));
  add("solver_cache.evictions", static_cast<double>(cache_evictions_));
  add("solver.setup_flops_charged", static_cast<double>(setup_charged_));
  add("solver.setup_flops_amortized", static_cast<double>(setup_amortized_));
  if (record.degraded) {
    add("recovery.degraded", 1.0);
    add("recovery.achieved_quorum", record.achieved_quorum);
    add("recovery.cells_lost", static_cast<double>(record.lost_cells.size()));
  }
}

UoiPipelineResult PipelineRun::run() {
  load_checkpoint();
  // Live-telemetry progress denominator (`uoi top` sums cells_done against
  // this); one rank owns it so the cross-rank sum counts the grid once.
  if (comm_.rank() == 0) {
    support::MetricsRegistry::instance().set(
        trace_rank_, "progress.cells_total",
        static_cast<double>(selection_grid_.n_cells() +
                            estimation_grid_.n_cells()));
  }
  // Each attempt runs selection (skipping merged cells) and estimation on
  // the current communicator; a RankFailedError shrinks and resumes.
  bool selection_complete = false;
  int attempts_left = s_.recovery.max_recovery_attempts;
  for (;;) {
    try {
      if (!selection_complete) {
        in_task_groups(*active_, uoi::solvers::kSelectionPass,
                       &PipelineRun::select);
        intersect();
        selection_complete = true;
      }
      in_task_groups(*active_, uoi::solvers::kEstimationPass,
                     &PipelineRun::estimate);
      break;
    } catch (const uoi::sim::RankFailedError&) {
      recover(selection_complete, attempts_left);
    }
  }
  finish();
  return std::move(out_);
}

}  // namespace

UoiPipeline::UoiPipeline(UoiPipelineSettings settings, UoiFamily family)
    : settings_(std::move(settings)), family_(std::move(family)) {}

UoiPipelineResult UoiPipeline::run(Comm& comm,
                                   const UoiParallelLayout& layout) {
  return PipelineRun(settings_, family_, comm, layout).run();
}

}  // namespace uoi::core
