#pragma once
// uoibench: shared declarations of the benchmark harness.
//
// The harness measures the library from outside: it generates a seeded
// problem with known ground truth, calls the public distributed drivers
// (core::uoi_lasso_distributed, var::uoi_var_distributed) on a
// sim::Cluster, and times direct calls into each layer's public functions.

#include <cstdint>
#include <string>
#include <vector>

#include "core/uoi_lasso_distributed.hpp"
#include "linalg/matrix.hpp"
#include "simcluster/comm.hpp"
#include "var/uoi_var.hpp"

namespace uoibench {

/// One named workload. Every workload runs on `ranks` rank threads with
/// the library's default screening, schedule and solver cache.
struct Workload {
  std::string name;
  bool is_var = false;
  int ranks = 4;
  uoi::core::UoiParallelLayout layout;
  std::size_t b1 = 4;  ///< selection bootstraps
  std::size_t b2 = 4;  ///< estimation bootstraps
  std::size_t q = 8;   ///< lambda grid size
  // UoI_LASSO problem.
  std::size_t n = 0;
  std::size_t p = 0;
  std::size_t k = 0;
  double correlation = 0.0;
  // UoI_VAR problem.
  std::size_t nodes = 0;
  std::size_t order = 1;
  std::size_t samples = 0;
  int readers = 2;

  /// ADMM cores per task group: C = ranks / (P_B * P_lambda).
  [[nodiscard]] int cores_per_group() const {
    return ranks / (layout.bootstrap_groups * layout.lambda_groups);
  }
};

/// The named workload at full size, or at a tiny size that finishes in
/// well under a second (the self-test mode). Throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, bool tiny);

/// A generated problem plus its ground truth.
struct Problem {
  uoi::linalg::Matrix x;          ///< lasso design (n x p)
  uoi::linalg::Vector y;          ///< lasso response
  uoi::linalg::Matrix series;     ///< VAR series (samples x nodes)
  std::uint64_t seed = 0;         ///< replicate seed (data + resampling)
  std::string work_base;          ///< path prefix for this problem's files
  std::string dataset_base;       ///< H5-lite copy of `series` (VAR only)
  uoi::linalg::Vector beta_true;  ///< lasso beta / VAR vec B
};

/// Generates replicate `replicate` of the seeded problem; for VAR also
/// writes the series as an H5-lite dataset under `work_dir` (the per-fit
/// input).
[[nodiscard]] Problem setup_problem(const Workload& w, std::uint64_t seed,
                                    int replicate,
                                    const std::string& work_dir);

[[nodiscard]] uoi::core::UoiLassoOptions lasso_options(const Workload& w,
                                                       std::uint64_t seed);
[[nodiscard]] uoi::var::UoiVarOptions var_options(const Workload& w,
                                                  std::uint64_t seed);

/// One complete distributed fit (for VAR: series load + fit).
struct FitResult {
  uoi::linalg::Vector beta;  ///< rank 0's final estimate
  double seconds = 0.0;      ///< wall time of the whole Cluster run
  std::vector<uoi::sim::CommStats> stats;  ///< per rank
};
[[nodiscard]] FitResult fit_distributed(const Workload& w, const Problem& pr);

/// The serial reference driver (UoiLasso / UoiVar) on the same problem.
[[nodiscard]] FitResult fit_serial(const Workload& w, const Problem& pr);

/// Recovered support and coefficients against the generator's truth.
struct Quality {
  double support_f1 = 0.0;
  double false_positives = 0.0;
  double rel_l2_err = 0.0;
};
[[nodiscard]] Quality score(const uoi::linalg::Vector& beta,
                            const uoi::linalg::Vector& truth);

/// True when both vectors have the same length and identical bytes.
[[nodiscard]] bool byte_identical(const uoi::linalg::Vector& a,
                                  const uoi::linalg::Vector& b);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Host description recorded with every result.
struct HostInfo {
  unsigned nproc = 0;
  int rank_threads = 0;
  bool oversubscribed = false;
  std::string simd_level;
  std::string build_type;
  std::uint64_t llc_bytes = 0;  ///< total last-level cache, all instances
};
[[nodiscard]] HostInfo host_info(int rank_threads);

/// Same-run host calibration: multi-threaded peak FP64 rate from a
/// register-resident FMA loop, and sustained memory bandwidth from a
/// STREAM-style scale kernel over arrays of `array_bytes` each.
struct Calibration {
  double peak_gflops = 0.0;
  double stream_gbs = 0.0;
  std::uint64_t array_bytes = 0;
  double checksum = 0.0;  ///< sum of the kernels' outputs
};
[[nodiscard]] Calibration calibrate(int threads, std::uint64_t array_bytes);

/// Fits attempted, and the ones that threw or failed a check.
struct Tally {
  long attempted = 0;
  long failed = 0;
};

/// Per-layer metrics of the traced run. `untraced_fit_s` is the median
/// untraced fit time measured in the same run (for the speed-up).
/// Appends to `out`; counts its traced and serial fits in `tally`, and
/// each failed check in `tally.failed`.
void measure_layers(const Workload& w, const Problem& pr,
                    const uoi::linalg::Vector& reference_beta,
                    double untraced_fit_s, const HostInfo& host, bool tiny,
                    std::vector<Metric>& out, Tally& tally);

/// Largest |a_i - b_i|; infinity on a length mismatch.
[[nodiscard]] double max_abs_diff(const uoi::linalg::Vector& a,
                                  const uoi::linalg::Vector& b);

/// Median / linear-interpolated quantile of a sample (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> v, double q);

}  // namespace uoibench
