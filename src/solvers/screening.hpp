#pragma once
// SAFE / strong-rule feature screening along a descending lambda chain
// (El Ghaoui et al. 2010; Tibshirani et al. 2012), plus the active-set
// chain drivers that exploit it. At high dimension most columns are
// provably (SAFE) or almost-certainly (strong rule) inactive at most
// lambda values, so the expensive parts of each solve — the RidgeGram /
// Cholesky pair and every ADMM iteration, including the distributed
// (p+3)-double fused consensus allreduce — run over the surviving column
// subset only. Strong-rule survivors are verified with a KKT post-check
// that re-admits any violating column and re-solves, so screening is an
// optimization, never an approximation.
//
// Bitwise contract. A naive "solve only over W" is NOT bit-identical to
// the unscreened solve: the full-p x-update couples every column through
// (A'A + rho I)^{-1}, so even converged iterates differ in the last ulp.
// The chains below therefore run a canonical two-stage procedure in every
// mode, including off:
//   1. working solve over W (off: W = all p, reusing the cached full
//      factorization; safe/strong: gathered columns only),
//   2. KKT check over all p, re-admitting violators (off mode has none by
//      construction),
//   3. a canonical re-solve restricted to the final support S with the
//      identical warm start — skipped when S == W, because then the
//      working solve *is* the canonical solve bit-for-bit.
// Whenever the modes agree on S (they do whenever the KKT loop converges,
// which the post-check enforces), every mode emits byte-identical betas.
// Off mode keeps the pre-screening cost profile: one cached full-p
// factorization for the whole chain plus a cheap |S|-column polish.
//
// Distributed determinism: the working set is a pure function of
// replicated data (the allreduced A'b / residual correlations and the
// replicated consensus z), so every rank derives the identical index map
// with zero extra communication; the KKT check costs one p-length
// allreduce per round.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "solvers/admm_lasso.hpp"
#include "solvers/distributed_admm.hpp"

namespace uoi::solvers {

enum class ScreenMode {
  kAuto,    ///< resolve from $UOI_SCREEN (default: strong)
  kOff,     ///< canonical two-stage solve over all p columns
  kSafe,    ///< El Ghaoui SAFE test (certified; conservative)
  kStrong,  ///< sequential strong rule (aggressive; KKT-checked)
};

/// Resolves ScreenMode::kAuto: $UOI_SCREEN in {off,safe,strong,auto},
/// unset/auto/unparseable falls back to strong. Explicit modes win.
[[nodiscard]] ScreenMode resolve_screen_mode(ScreenMode requested);

/// "off" / "safe" / "strong".
[[nodiscard]] const char* screen_mode_name(ScreenMode mode);

struct ScreenOptions {
  ScreenMode mode = ScreenMode::kAuto;
  /// KKT slack: column j outside W violates when
  /// |c_j| > lambda1 + kkt_tolerance * max(1, lambda1).
  double kkt_tolerance = 1e-7;
  /// Bound on re-admission rounds per lambda (the working set grows
  /// monotonically, so termination is guaranteed regardless; this caps
  /// the pathological worst case of one-column-per-round growth).
  std::size_t max_kkt_rounds = 8;
  /// Internal refinement of the chain's stopping tolerances: every chain
  /// solve multiplies eps_abs / eps_rel by this factor (widening the
  /// iteration budget by refine_iteration_scale to compensate). Support
  /// identification compares soft-threshold zero patterns across solver
  /// topologies (serial joint vs distributed consensus ADMM) and across
  /// lambda-chain chunkings; at prediction-grade tolerances those
  /// patterns flip for marginal coefficients, which strict-intersection
  /// selection amplifies into different supports. 1.0 disables.
  double refine_tolerance_scale = 1e-3;
  std::size_t refine_iteration_scale = 10;
};

/// Chain-level screening counters (exported as screen.* metrics).
struct ScreenStats {
  std::uint64_t lambdas = 0;          ///< chain steps processed
  std::uint64_t survivors = 0;        ///< sum of final |W| over steps
  std::uint64_t kkt_violations = 0;   ///< columns re-admitted by KKT checks
  std::uint64_t kkt_rounds = 0;       ///< re-solve rounds triggered
  std::uint64_t gram_cols_saved = 0;  ///< sum of (p - |W|) over steps
  std::uint64_t canonical_solves = 0; ///< S != W polish re-solves
  std::uint64_t total_columns = 0;    ///< sum of p over steps

  void operator+=(const ScreenStats& other);
};

namespace detail {

/// Per-chain screening state; reset whenever lambda stops descending
/// (e.g. the elastic-net grid jumping to a new l1_ratio).
struct ChainScreenState {
  bool has_prev = false;
  double lambda_prev = 0.0;
  uoi::linalg::Vector beta_prev;   ///< canonical beta at lambda_prev (full p)
  uoi::linalg::Vector c_prev;      ///< A'(b - A beta_prev) (full p)
  std::vector<char> ever_active;   ///< union of supports along the chain

  void reset(std::size_t p);
};

/// Builds the screened working set for the next chain step. Always
/// includes ever-active columns and the previous support; kOff returns
/// all p columns. Inputs must be replicated across ranks in distributed
/// use (they are: atb / c_prev come from allreduces, beta_prev from the
/// replicated consensus z).
[[nodiscard]] std::vector<std::size_t> screen_working_set(
    ScreenMode mode, std::size_t p, double lambda1,
    std::span<const double> atb, std::span<const double> col_sq_norms,
    double b_norm_sq, double lambda_max, const ChainScreenState& state);

/// Columns outside the working set whose residual correlation violates
/// the KKT condition |c_j| <= lambda1 (within ScreenOptions slack).
[[nodiscard]] std::vector<std::size_t> kkt_violators(
    std::span<const double> c, std::span<const char> in_working,
    double lambda1, const ScreenOptions& options);

/// dst = src[idx] through the dispatched gather kernel.
[[nodiscard]] uoi::linalg::Vector gather_vector(
    std::span<const double> src, std::span<const std::size_t> idx);

/// Gathers columns `idx` of `a` into a fresh dense matrix (row-wise
/// gather-compact; works on views, unlike Matrix::gather_cols).
[[nodiscard]] uoi::linalg::Matrix gather_cols_view(
    uoi::linalg::ConstMatrixView a, std::span<const std::size_t> idx);

/// The options every chain solve runs under: ScreenOptions refinement
/// applied to the caller's AdmmOptions, and rho resolved once for the
/// whole chain — a default (0) rho becomes trace(A'A)/p =
/// sum(col_sq_norms)/p of the chain's full problem. Working solves,
/// canonical re-solves and cached full solvers all start from this one
/// rho, which is what keeps the screening modes byte-identical. The norms
/// are replicated in distributed use, so resolving costs no collective.
/// Drivers that pre-build full-path solvers for a chain to reuse (cached
/// off-mode solvers) must construct them with these options.
[[nodiscard]] AdmmOptions refined_admm_options(
    AdmmOptions admm, const ScreenOptions& screen,
    std::span<const double> col_sq_norms);

}  // namespace detail

/// Serial screened lambda-chain driver for LASSO / elastic net. Call
/// solve() with descending lambda1 values; a non-descending lambda1
/// resets the chain state (fresh strong-rule baseline). lambda2 is the
/// elastic-net l2 penalty (KKT/screening thresholds use lambda1 only,
/// which stays valid: at z_j = 0 the l2 term vanishes).
class ScreenedLassoChain {
 public:
  ScreenedLassoChain(uoi::linalg::ConstMatrixView a,
                     std::span<const double> b, const AdmmOptions& admm,
                     const ScreenOptions& screen = {});

  [[nodiscard]] AdmmResult solve(double lambda1, double lambda2 = 0.0);

  [[nodiscard]] ScreenMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ScreenStats& stats() const noexcept { return stats_; }

 private:
  uoi::linalg::ConstMatrixView a_;
  std::span<const double> b_;
  AdmmOptions admm_;
  ScreenOptions screen_;
  ScreenMode mode_;
  uoi::linalg::Vector atb_;
  uoi::linalg::Vector col_sq_norms_;
  double b_norm_sq_ = 0.0;
  double lambda_max_ = 0.0;
  /// Off-mode working solver: one full-p factorization per chain.
  std::optional<LassoAdmmSolver> full_solver_;
  detail::ChainScreenState state_;
  ScreenStats stats_;
};

/// Replicated screening inputs for one distributed bootstrap: built
/// collectively with a single (2p+1)-double allreduce and cacheable
/// alongside the bootstrap's row block (they depend only on the data,
/// not on lambda or the chain).
struct DistributedScreenInputs {
  uoi::linalg::Vector atb;           ///< global A'b
  uoi::linalg::Vector col_sq_norms;  ///< global squared column norms
  double b_norm_sq = 0.0;
  double lambda_max = 0.0;           ///< ||A'b||_inf

  [[nodiscard]] std::size_t bytes() const noexcept {
    return (atb.size() + col_sq_norms.size() + 2) * sizeof(double);
  }
};

/// Collective: one fused allreduce over [A'b | col norms^2 | b'b].
[[nodiscard]] DistributedScreenInputs build_screen_inputs(
    uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
    std::span<const double> local_b);

/// Distributed screened chain driver. Collective over `comm`: every rank
/// derives the identical working set from the replicated inputs, so the
/// reduced consensus solves (payload (|W|+3) instead of (p+3)) stay in
/// lockstep. `full_solver`, when given, serves off-mode working solves so
/// a cached full factorization is reused across the chain.
class DistributedScreenedLassoChain {
 public:
  DistributedScreenedLassoChain(
      uoi::sim::Comm& comm, uoi::linalg::ConstMatrixView local_a,
      std::span<const double> local_b, const DistributedScreenInputs& shared,
      const AdmmOptions& admm, const ScreenOptions& screen = {},
      const DistributedLassoAdmmSolver* full_solver = nullptr);

  [[nodiscard]] DistributedAdmmResult solve(double lambda1,
                                            double lambda2 = 0.0);

  [[nodiscard]] ScreenMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ScreenStats& stats() const noexcept { return stats_; }

 private:
  uoi::sim::Comm* comm_;
  uoi::linalg::ConstMatrixView a_;
  std::span<const double> b_;
  const DistributedScreenInputs* shared_;
  AdmmOptions admm_;
  ScreenOptions screen_;
  ScreenMode mode_;
  const DistributedLassoAdmmSolver* full_solver_;
  std::optional<DistributedLassoAdmmSolver> owned_full_solver_;
  detail::ChainScreenState state_;
  ScreenStats stats_;
};

}  // namespace uoi::solvers
