#pragma once
// Shared helpers for the distributed UoI drivers (internal): the
// P_B x P_lambda x C layout arithmetic, the local row-block gathering
// every driver performs when materializing its share of a resample, and
// the pipeline hooks the two linear families (lasso, elastic net) share.

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/uoi_lasso.hpp"
#include "core/uoi_pipeline.hpp"
#include "linalg/matrix.hpp"

namespace uoi::core::detail {

/// This rank's slice [begin, end) of a length-m index list split over C.
struct Slice {
  std::size_t begin;
  std::size_t end;
};

inline Slice block_slice(std::size_t m, int c_ranks, int c_rank) {
  const auto c = static_cast<std::size_t>(c_ranks);
  const auto r = static_cast<std::size_t>(c_rank);
  return {m * r / c, m * (r + 1) / c};
}

/// Gathers the rows of `x` (and entries of `y`) listed in idx[begin, end).
inline void gather_local_block(uoi::linalg::ConstMatrixView x,
                               std::span<const double> y,
                               std::span<const std::size_t> idx, Slice slice,
                               uoi::linalg::Matrix& x_out,
                               uoi::linalg::Vector& y_out) {
  const std::size_t m = slice.end - slice.begin;
  x_out.resize(m, x.cols());
  y_out.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t src = idx[slice.begin + i];
    const auto row = x.row(src);
    std::copy(row.begin(), row.end(), x_out.row(i).begin());
    y_out[i] = y[src];
  }
}

/// The three-level layout derived from a communicator rank.
struct TaskLayout {
  int n_groups;    ///< total task groups (P_B * P_lambda)
  int c_ranks;     ///< ADMM cores in THIS rank's group
  int task_group;  ///< this rank's group id
  int task_rank;   ///< rank within the group
};

/// Remainder-tolerant group split: G = pb * pl contiguous groups; the first
/// `comm_size % G` groups get one extra rank. When G divides comm_size this
/// reproduces the historical even split exactly. Requires comm_size >= G so
/// every group has at least one rank (prime sizes no longer degenerate to a
/// single group — they yield G groups of uneven width).
inline TaskLayout make_task_layout(int rank, int comm_size, int pb, int pl) {
  TaskLayout out{};
  out.n_groups = pb * pl;
  const int base = comm_size / out.n_groups;
  const int extra = comm_size % out.n_groups;
  const int wide_span = extra * (base + 1);  // ranks covered by wide groups
  if (rank < wide_span) {
    out.c_ranks = base + 1;
    out.task_group = rank / (base + 1);
    out.task_rank = rank % (base + 1);
  } else {
    out.c_ranks = base;
    out.task_group = extra + (rank - wide_span) / base;
    out.task_rank = (rank - wide_span) % base;
  }
  return out;
}

/// The first `width` entries of each winner row, in bootstrap order.
inline std::vector<uoi::linalg::Vector> winner_rows(
    const uoi::linalg::Matrix& winners, std::size_t width) {
  std::vector<uoi::linalg::Vector> rows;
  rows.reserve(winners.rows());
  for (std::size_t k = 0; k < winners.rows(); ++k) {
    const auto row = winners.row(k);
    rows.emplace_back(row.begin(),
                      row.begin() + static_cast<std::ptrdiff_t>(width));
  }
  return rows;
}

/// A row-resampled linear regression problem: lasso when every cell's l2
/// penalty is zero, elastic net otherwise.
struct LinearProblem {
  uoi::linalg::ConstMatrixView x;  ///< full (replicated) design
  std::span<const double> y;
  UoiLassoOptions resampling;       ///< seed, B1/B2 and split fractions
  uoi::solvers::AdmmOptions admm;
  uoi::solvers::ScreenOptions screen;  ///< mode already resolved
  EstimationCriterion criterion = EstimationCriterion::kMse;
  /// (l1, l2) penalty of a grid cell.
  std::function<std::pair<double, double>(std::size_t cell)> penalties;
};

/// The pipeline family of a linear problem, hooks and shape filled in:
/// selection gathers each bootstrap's row block once per cache entry and
/// runs screened consensus-ADMM chains; estimation refits by distributed
/// OLS on the candidate support and scores held-out MSE under `criterion`.
/// The hooks keep a reference to `problem`, which must outlive the run.
/// The caller sets the name, cell lambdas, cost seed and fingerprint.
[[nodiscard]] UoiFamily linear_family(const LinearProblem& problem);

}  // namespace uoi::core::detail
