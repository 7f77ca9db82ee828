#include "solvers/screening.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/blas.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace uoi::solvers {

using uoi::linalg::ConstMatrixView;
using uoi::linalg::Matrix;
using uoi::linalg::Vector;

ScreenMode resolve_screen_mode(ScreenMode requested) {
  if (requested != ScreenMode::kAuto) return requested;
  const char* env = std::getenv("UOI_SCREEN");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "off") == 0) return ScreenMode::kOff;
    if (std::strcmp(env, "safe") == 0) return ScreenMode::kSafe;
    if (std::strcmp(env, "strong") == 0) return ScreenMode::kStrong;
    if (std::strcmp(env, "auto") != 0) {
      UOI_LOG_WARN.field("UOI_SCREEN", env)
          << "unknown screening mode; using strong";
    }
  }
  return ScreenMode::kStrong;
}

const char* screen_mode_name(ScreenMode mode) {
  switch (mode) {
    case ScreenMode::kOff:
      return "off";
    case ScreenMode::kSafe:
      return "safe";
    case ScreenMode::kStrong:
      return "strong";
    case ScreenMode::kAuto:
      break;
  }
  return "auto";
}

void ScreenStats::operator+=(const ScreenStats& other) {
  lambdas += other.lambdas;
  survivors += other.survivors;
  kkt_violations += other.kkt_violations;
  kkt_rounds += other.kkt_rounds;
  gram_cols_saved += other.gram_cols_saved;
  canonical_solves += other.canonical_solves;
  total_columns += other.total_columns;
}

namespace detail {

void ChainScreenState::reset(std::size_t p) {
  has_prev = false;
  lambda_prev = 0.0;
  beta_prev.assign(p, 0.0);
  c_prev.assign(p, 0.0);
  ever_active.assign(p, 0);
}

std::vector<std::size_t> screen_working_set(
    ScreenMode mode, std::size_t p, double lambda1,
    std::span<const double> atb, std::span<const double> col_sq_norms,
    double b_norm_sq, double lambda_max, const ChainScreenState& state) {
  std::vector<std::size_t> working;
  if (mode == ScreenMode::kOff) {
    working.resize(p);
    for (std::size_t j = 0; j < p; ++j) working[j] = j;
    return working;
  }
  working.reserve(p / 4);
  if (mode == ScreenMode::kSafe) {
    // El Ghaoui et al. 2010, basic SAFE test: discard j when
    //   |a_j' b| < lambda - ||a_j|| ||b|| (lambda_max - lambda)/lambda_max.
    // A certificate, not a heuristic — discarded columns are provably
    // zero at lambda, so the KKT loop never re-admits them.
    const double b_norm = std::sqrt(std::max(0.0, b_norm_sq));
    const double shrink =
        lambda_max > 0.0 ? (lambda_max - lambda1) / lambda_max : 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      const double slack =
          std::sqrt(std::max(0.0, col_sq_norms[j])) * b_norm * shrink;
      if (state.ever_active[j] != 0 ||
          std::abs(atb[j]) >= lambda1 - slack) {
        working.push_back(j);
      }
    }
    return working;
  }
  // Sequential strong rule (Tibshirani et al. 2012): keep j when
  // |c_prev_j| >= 2 lambda - lambda_prev, where c_prev is the residual
  // correlation at the previous chain solution; the first step uses
  // c = A'b and lambda_prev = lambda_max. Can discard active columns in
  // pathological designs — the KKT post-check re-admits them.
  const bool first = !state.has_prev;
  const double prev = first ? lambda_max : state.lambda_prev;
  const double threshold = 2.0 * lambda1 - prev;
  const std::span<const double> corr =
      first ? atb : std::span<const double>(state.c_prev);
  for (std::size_t j = 0; j < p; ++j) {
    if (state.ever_active[j] != 0 || std::abs(corr[j]) >= threshold) {
      working.push_back(j);
    }
  }
  return working;
}

std::vector<std::size_t> kkt_violators(std::span<const double> c,
                                       std::span<const char> in_working,
                                       double lambda1,
                                       const ScreenOptions& options) {
  const double slack =
      options.kkt_tolerance * std::max(1.0, lambda1);
  std::vector<std::size_t> violators;
  for (std::size_t j = 0; j < c.size(); ++j) {
    if (in_working[j] == 0 && std::abs(c[j]) > lambda1 + slack) {
      violators.push_back(j);
    }
  }
  return violators;
}

Vector gather_vector(std::span<const double> src,
                     std::span<const std::size_t> idx) {
  Vector out(idx.size());
  uoi::linalg::gather_compact(src, idx, out);
  return out;
}

Matrix gather_cols_view(ConstMatrixView a, std::span<const std::size_t> idx) {
  Matrix out(a.rows(), idx.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    uoi::linalg::gather_compact(a.row(r), idx, out.row(r));
  }
  return out;
}

AdmmOptions refined_admm_options(AdmmOptions admm,
                                 const ScreenOptions& screen,
                                 std::span<const double> col_sq_norms) {
  double trace = 0.0;
  for (const double v : col_sq_norms) trace += v;
  admm.rho = resolve_rho(admm.rho, trace, col_sq_norms.size());
  admm.eps_abs *= screen.refine_tolerance_scale;
  admm.eps_rel *= screen.refine_tolerance_scale;
  admm.max_iterations *= screen.refine_iteration_scale;
  return admm;
}

namespace {

/// Sorted-union merge of KKT violators into the working set.
void merge_violators(std::vector<std::size_t>& working,
                     std::vector<char>& in_working,
                     const std::vector<std::size_t>& violators) {
  for (const std::size_t j : violators) in_working[j] = 1;
  std::vector<std::size_t> merged;
  merged.reserve(working.size() + violators.size());
  std::merge(working.begin(), working.end(), violators.begin(),
             violators.end(), std::back_inserter(merged));
  working = std::move(merged);
}

}  // namespace

}  // namespace detail

// ---- Serial chain -------------------------------------------------------

ScreenedLassoChain::ScreenedLassoChain(ConstMatrixView a,
                                       std::span<const double> b,
                                       const AdmmOptions& admm,
                                       const ScreenOptions& screen)
    : a_(a), b_(b), screen_(screen), mode_(resolve_screen_mode(screen.mode)) {
  const std::size_t p = a_.cols();
  atb_.assign(p, 0.0);
  uoi::linalg::gemv_transposed(1.0, a_, b_, 0.0, atb_);
  col_sq_norms_.assign(p, 0.0);
  for (std::size_t r = 0; r < a_.rows(); ++r) {
    const auto row = a_.row(r);
    for (std::size_t j = 0; j < p; ++j) col_sq_norms_[j] += row[j] * row[j];
  }
  admm_ = detail::refined_admm_options(admm, screen, col_sq_norms_);
  b_norm_sq_ = uoi::linalg::nrm2_squared(b_);
  for (const double v : atb_) lambda_max_ = std::max(lambda_max_, std::abs(v));
  state_.reset(p);
}

AdmmResult ScreenedLassoChain::solve(double lambda1, double lambda2) {
  const std::size_t p = a_.cols();
  const std::size_t n = a_.rows();
  if (state_.has_prev && lambda1 > state_.lambda_prev) state_.reset(p);
  ++stats_.lambdas;
  stats_.total_columns += p;

  std::vector<std::size_t> working = detail::screen_working_set(
      mode_, p, lambda1, atb_, col_sq_norms_, b_norm_sq_, lambda_max_,
      state_);
  std::vector<char> in_working(p, 0);
  for (const std::size_t j : working) in_working[j] = 1;

  AdmmResult work;
  Matrix aw;                 // gathered working columns (screened modes)
  Vector c(p, 0.0);          // residual correlations at the working z
  bool have_c = false;
  std::uint64_t total_flops = 0;
  std::size_t total_iterations = 0;
  std::size_t total_rho_updates = 0;

  for (std::size_t round = 0;; ++round) {
    if (mode_ == ScreenMode::kOff) {
      if (!full_solver_) full_solver_.emplace(a_, b_, admm_);
      AdmmResult ws;
      ws.beta = state_.beta_prev;
      work = full_solver_->solve_elastic_net(lambda1, lambda2, &ws);
    } else if (working.empty()) {
      work = AdmmResult{};
      work.converged = true;
    } else {
      aw = detail::gather_cols_view(a_, working);
      const LassoAdmmSolver sub(aw, b_, admm_);
      AdmmResult ws;
      ws.beta = detail::gather_vector(state_.beta_prev, working);
      work = sub.solve_elastic_net(lambda1, lambda2, &ws);
    }
    total_flops += work.flops;
    total_iterations += work.iterations;
    total_rho_updates += work.rho_updates;
    if (mode_ == ScreenMode::kOff) break;

    // KKT check over the discarded columns: c = A'(b - A_W z_W).
    Vector r(b_.begin(), b_.end());
    if (!work.beta.empty()) {
      uoi::linalg::gemv(-1.0, aw, work.beta, 1.0, r);
      total_flops += uoi::linalg::gemv_flops(n, working.size());
    }
    uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
    total_flops += uoi::linalg::gemv_flops(n, p);
    have_c = true;
    if (round >= screen_.max_kkt_rounds) break;
    const auto violators =
        detail::kkt_violators(c, in_working, lambda1, screen_);
    if (violators.empty()) break;
    stats_.kkt_violations += violators.size();
    ++stats_.kkt_rounds;
    detail::merge_violators(working, in_working, violators);
  }
  stats_.survivors += working.size();
  stats_.gram_cols_saved += p - working.size();

  // Final support, and the canonical polish when it differs from W (when
  // S == W the working solve already IS the canonical solve bit-for-bit:
  // same gathered matrix, same warm start).
  std::vector<std::size_t> support;
  if (mode_ == ScreenMode::kOff) {
    for (std::size_t j = 0; j < p; ++j) {
      if (work.beta[j] != 0.0) support.push_back(j);
    }
  } else {
    for (std::size_t i = 0; i < working.size(); ++i) {
      if (work.beta[i] != 0.0) support.push_back(working[i]);
    }
  }

  AdmmResult final_result;
  bool canonical_ran = false;
  if (support.size() == working.size()) {
    final_result = std::move(work);
    if (mode_ != ScreenMode::kOff) {
      Vector full(p, 0.0);
      if (!final_result.beta.empty()) {
        uoi::linalg::scatter_expand(final_result.beta, working, full);
      }
      final_result.beta = std::move(full);
    }
  } else {
    ++stats_.canonical_solves;
    canonical_ran = true;
    if (support.empty()) {
      final_result = AdmmResult{};
      final_result.converged = true;
      final_result.beta.assign(p, 0.0);
    } else {
      const Matrix as = detail::gather_cols_view(a_, support);
      const LassoAdmmSolver sub(as, b_, admm_);
      AdmmResult ws;
      ws.beta = detail::gather_vector(state_.beta_prev, support);
      final_result = sub.solve_elastic_net(lambda1, lambda2, &ws);
      total_flops += final_result.flops;
      total_iterations += final_result.iterations;
      total_rho_updates += final_result.rho_updates;
      Vector full(p, 0.0);
      uoi::linalg::scatter_expand(final_result.beta, support, full);
      final_result.beta = std::move(full);
    }
  }
  final_result.flops = total_flops;
  final_result.iterations = total_iterations;
  final_result.rho_updates = total_rho_updates;

  // Chain state for the next (smaller) lambda.
  state_.has_prev = true;
  state_.lambda_prev = lambda1;
  state_.beta_prev = final_result.beta;
  for (const std::size_t j : support) state_.ever_active[j] = 1;
  if (mode_ == ScreenMode::kStrong) {
    if (canonical_ran || !have_c) {
      Vector r(b_.begin(), b_.end());
      for (std::size_t j : support) {
        // r -= beta_j * a_col_j, column-wise over the support only.
        const double bj = final_result.beta[j];
        for (std::size_t row = 0; row < n; ++row) r[row] -= bj * a_(row, j);
      }
      uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
      final_result.flops += uoi::linalg::gemv_flops(n, p);
    }
    state_.c_prev = c;
  }
  return final_result;
}

// ---- Distributed chain --------------------------------------------------

DistributedScreenInputs build_screen_inputs(uoi::sim::Comm& comm,
                                            ConstMatrixView local_a,
                                            std::span<const double> local_b) {
  const std::size_t p = local_a.cols();
  // One fused (2p+1)-double allreduce: [A'b | per-column ||.||^2 | b'b].
  Vector buffer(2 * p + 1, 0.0);
  std::span<double> atb(buffer.data(), p);
  uoi::linalg::gemv_transposed(1.0, local_a, local_b, 0.0, atb);
  for (std::size_t r = 0; r < local_a.rows(); ++r) {
    const auto row = local_a.row(r);
    for (std::size_t j = 0; j < p; ++j) buffer[p + j] += row[j] * row[j];
  }
  buffer[2 * p] = uoi::linalg::nrm2_squared(local_b);
  comm.allreduce(std::span<double>(buffer), uoi::sim::ReduceOp::kSum);

  DistributedScreenInputs inputs;
  inputs.atb.assign(buffer.begin(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(p));
  inputs.col_sq_norms.assign(
      buffer.begin() + static_cast<std::ptrdiff_t>(p),
      buffer.begin() + static_cast<std::ptrdiff_t>(2 * p));
  inputs.b_norm_sq = buffer[2 * p];
  for (const double v : inputs.atb) {
    inputs.lambda_max = std::max(inputs.lambda_max, std::abs(v));
  }
  return inputs;
}

DistributedScreenedLassoChain::DistributedScreenedLassoChain(
    uoi::sim::Comm& comm, ConstMatrixView local_a,
    std::span<const double> local_b, const DistributedScreenInputs& shared,
    const AdmmOptions& admm, const ScreenOptions& screen,
    const DistributedLassoAdmmSolver* full_solver)
    : comm_(&comm), a_(local_a), b_(local_b), shared_(&shared),
      admm_(detail::refined_admm_options(admm, screen, shared.col_sq_norms)),
      screen_(screen), mode_(resolve_screen_mode(screen.mode)),
      full_solver_(full_solver) {
  UOI_CHECK_DIMS(shared.atb.size() == local_a.cols(),
                 "screen inputs shape mismatch");
  state_.reset(local_a.cols());
}

DistributedAdmmResult DistributedScreenedLassoChain::solve(double lambda1,
                                                           double lambda2) {
  const std::size_t p = a_.cols();
  const std::size_t n_local = a_.rows();
  if (state_.has_prev && lambda1 > state_.lambda_prev) state_.reset(p);
  ++stats_.lambdas;
  stats_.total_columns += p;

  // The working set is a pure function of replicated inputs (allreduced
  // correlations, the replicated consensus beta), so every rank derives
  // the identical index map with no extra communication; the reduced
  // consensus solves then exchange (|W|+3)-double payloads in lockstep.
  std::vector<std::size_t> working = detail::screen_working_set(
      mode_, p, lambda1, shared_->atb, shared_->col_sq_norms,
      shared_->b_norm_sq, shared_->lambda_max, state_);
  std::vector<char> in_working(p, 0);
  for (const std::size_t j : working) in_working[j] = 1;

  DistributedAdmmResult work;
  Matrix aw;
  Vector c(p, 0.0);
  bool have_c = false;
  AdmmTally totals;

  for (std::size_t round = 0;; ++round) {
    if (mode_ == ScreenMode::kOff) {
      if (full_solver_ == nullptr && !owned_full_solver_) {
        owned_full_solver_.emplace(*comm_, a_, b_, admm_);
      }
      const DistributedLassoAdmmSolver& solver =
          full_solver_ != nullptr ? *full_solver_ : *owned_full_solver_;
      DistributedAdmmResult ws;
      ws.beta = state_.beta_prev;
      work = solver.solve_elastic_net(lambda1, lambda2, &ws);
    } else if (working.empty()) {
      work = DistributedAdmmResult{};
      work.converged = true;
    } else {
      aw = detail::gather_cols_view(a_, working);
      // No collectives in this constructor, so building a fresh reduced
      // solver per lambda stays collective-safe.
      const DistributedLassoAdmmSolver sub(*comm_, aw, b_, admm_);
      DistributedAdmmResult ws;
      ws.beta = detail::gather_vector(state_.beta_prev, working);
      work = sub.solve_elastic_net(lambda1, lambda2, &ws);
    }
    totals += work;
    if (mode_ == ScreenMode::kOff) break;

    // KKT check: c = sum_ranks A_i'(b_i - A_{i,W} z_W), one p-length
    // allreduce per round.
    Vector r(b_.begin(), b_.end());
    if (!work.beta.empty() && n_local > 0) {
      uoi::linalg::gemv(-1.0, aw, work.beta, 1.0, r);
      totals.local_flops += uoi::linalg::gemv_flops(n_local, working.size());
    }
    c.assign(p, 0.0);
    if (n_local > 0) {
      uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
      totals.local_flops += uoi::linalg::gemv_flops(n_local, p);
    }
    comm_->allreduce(std::span<double>(c), uoi::sim::ReduceOp::kSum);
    totals.allreduce_calls += 1;
    totals.allreduce_bytes += p * sizeof(double);
    have_c = true;
    if (round >= screen_.max_kkt_rounds) break;
    const auto violators =
        detail::kkt_violators(c, in_working, lambda1, screen_);
    if (violators.empty()) break;
    stats_.kkt_violations += violators.size();
    ++stats_.kkt_rounds;
    detail::merge_violators(working, in_working, violators);
  }
  stats_.survivors += working.size();
  stats_.gram_cols_saved += p - working.size();

  std::vector<std::size_t> support;
  if (mode_ == ScreenMode::kOff) {
    for (std::size_t j = 0; j < p; ++j) {
      if (work.beta[j] != 0.0) support.push_back(j);
    }
  } else {
    for (std::size_t i = 0; i < working.size(); ++i) {
      if (work.beta[i] != 0.0) support.push_back(working[i]);
    }
  }

  DistributedAdmmResult final_result;
  bool canonical_ran = false;
  if (support.size() == working.size()) {
    final_result = std::move(work);
    if (mode_ != ScreenMode::kOff) {
      Vector full(p, 0.0);
      if (!final_result.beta.empty()) {
        uoi::linalg::scatter_expand(final_result.beta, working, full);
      }
      final_result.beta = std::move(full);
    }
  } else {
    ++stats_.canonical_solves;
    canonical_ran = true;
    if (support.empty()) {
      final_result = DistributedAdmmResult{};
      final_result.converged = true;
      final_result.beta.assign(p, 0.0);
    } else {
      const Matrix as = detail::gather_cols_view(a_, support);
      const DistributedLassoAdmmSolver sub(*comm_, as, b_, admm_);
      DistributedAdmmResult ws;
      ws.beta = detail::gather_vector(state_.beta_prev, support);
      final_result = sub.solve_elastic_net(lambda1, lambda2, &ws);
      totals += final_result;
      Vector full(p, 0.0);
      uoi::linalg::scatter_expand(final_result.beta, support, full);
      final_result.beta = std::move(full);
    }
  }
  totals.store(final_result);

  state_.has_prev = true;
  state_.lambda_prev = lambda1;
  state_.beta_prev = final_result.beta;
  for (const std::size_t j : support) state_.ever_active[j] = 1;
  if (mode_ == ScreenMode::kStrong) {
    if (canonical_ran || !have_c) {
      Vector r(b_.begin(), b_.end());
      for (std::size_t j : support) {
        const double bj = final_result.beta[j];
        for (std::size_t row = 0; row < n_local; ++row) {
          r[row] -= bj * a_(row, j);
        }
      }
      c.assign(p, 0.0);
      if (n_local > 0) {
        uoi::linalg::gemv_transposed(1.0, a_, r, 0.0, c);
        final_result.local_flops += uoi::linalg::gemv_flops(n_local, p);
      }
      comm_->allreduce(std::span<double>(c), uoi::sim::ReduceOp::kSum);
      final_result.allreduce_calls += 1;
      final_result.allreduce_bytes += p * sizeof(double);
    }
    state_.c_prev = c;
  }
  return final_result;
}

}  // namespace uoi::solvers
