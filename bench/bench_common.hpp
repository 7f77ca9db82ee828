#pragma once
// Shared helpers for the paper-replication bench binaries: breakdown-row
// formatting, the functional/model section banners, opt-in per-figure
// trace capture, and standardized machine-readable telemetry
// (BENCH_<figure>.json, consumed by tools/check_bench_regression.py).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "linalg/simd.hpp"
#include "perfmodel/lasso_cost.hpp"
#include "report/run_report.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace uoi::bench {

inline std::vector<std::string> breakdown_row(
    const std::string& label, const uoi::perf::RuntimeBreakdown& b) {
  using uoi::support::format_seconds;
  return {label,
          format_seconds(b.computation),
          format_seconds(b.communication),
          format_seconds(b.distribution),
          format_seconds(b.data_io),
          format_seconds(b.total()),
          uoi::support::format_fixed(
              b.total() > 0.0 ? 100.0 * b.computation / b.total() : 0.0, 1) +
              "%"};
}

inline uoi::support::Table breakdown_table(const std::string& first_column) {
  return uoi::support::Table({first_column, "computation", "communication",
                              "distribution", "data I/O", "total",
                              "compute %"});
}

inline void banner(const char* text) { std::printf("\n-- %s --\n\n", text); }

/// Opt-in per-figure tracing: when the UOI_TRACE_DIR environment variable
/// is set, captures every span of the enclosing scope and writes
/// `$UOI_TRACE_DIR/<figure>.trace.json` (Chrome trace event format, one
/// pid per rank) on destruction. A no-op otherwise, so bench runs stay
/// allocation-free on the trace path by default.
class FigureTrace {
 public:
  explicit FigureTrace(const char* figure) : figure_(figure) {
    const char* dir = std::getenv("UOI_TRACE_DIR");
    if (dir == nullptr || dir[0] == '\0') return;
    // Create the trace directory up front: losing an opted-in trace to a
    // missing directory at exit is the worst possible failure mode.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      UOI_LOG_ERROR.field("dir", dir).field("error", ec.message())
          << "cannot create UOI_TRACE_DIR; figure trace will not be written";
      return;
    }
    path_ = std::string(dir) + "/" + figure_ + ".trace.json";
    auto& tracer = uoi::support::Tracer::instance();
    tracer.clear();
    tracer.set_capture_events(true);
  }
  FigureTrace(const FigureTrace&) = delete;
  FigureTrace& operator=(const FigureTrace&) = delete;
  ~FigureTrace() {
    if (path_.empty()) return;
    auto& tracer = uoi::support::Tracer::instance();
    try {
      tracer.write_chrome_trace(path_);
      std::printf("trace: wrote %s (%zu events)\n", path_.c_str(),
                  tracer.event_count());
    } catch (const std::exception& e) {
      UOI_LOG_ERROR.field("path", path_)
          << "failed to write figure trace: " << e.what();
    }
    tracer.set_capture_events(false);
  }

 private:
  std::string figure_;
  std::string path_;
};

/// Directory bench output files go to: $UOI_BENCH_DIR (created if
/// missing), default ".".
inline std::string bench_output_dir() {
  const char* env = std::getenv("UOI_BENCH_DIR");
  const std::string dir = (env != nullptr && env[0] != '\0') ? env : ".";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw uoi::support::IoError("cannot create UOI_BENCH_DIR '" + dir +
                                "': " + ec.message());
  }
  return dir;
}

/// Standardized machine-readable bench telemetry. Construct at the top of a
/// bench main() (after FigureTrace, if any), describe the configuration
/// with config(), and on destruction it snapshots the Tracer /
/// MetricsRegistry through uoi::report::build_run_report and writes
///
///   $UOI_BENCH_DIR/BENCH_<figure>.json     (UOI_BENCH_DIR default: ".")
///
/// with schema "uoi-bench-v1": figure, config, wall_seconds, the four
/// runtime buckets, load-imbalance metrics, and per-category span-latency
/// percentiles. tools/check_bench_regression.py diffs these files against
/// the committed baselines in bench/baselines/.
class BenchReport {
 public:
  explicit BenchReport(const char* figure) : figure_(figure) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  BenchReport& config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, uoi::support::json_quote(value));
    return *this;
  }
  BenchReport& config(const std::string& key, const char* value) {
    return config(key, std::string(value));
  }
  BenchReport& config(const std::string& key, double value) {
    config_.emplace_back(key, uoi::support::json_number(value));
    return *this;
  }
  BenchReport& config(const std::string& key, std::size_t value) {
    config_.emplace_back(key, std::to_string(value));
    return *this;
  }
  BenchReport& config(const std::string& key, int value) {
    config_.emplace_back(key, std::to_string(value));
    return *this;
  }

  ~BenchReport() {
    try {
      write();
    } catch (const std::exception& e) {
      UOI_LOG_ERROR.field("figure", figure_)
          << "failed to write bench telemetry: " << e.what();
    }
  }

 private:
  void write() const {
    namespace js = uoi::support;
    const double wall = watch_.seconds();
    const auto report =
        uoi::report::build_run_report(uoi::report::collect_inputs(wall));

    std::string out;
    out += "{\"schema\":\"uoi-bench-v1\",\"figure\":";
    out += js::json_quote(figure_);
    out += ",\"config\":{";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      if (i > 0) out += ',';
      out += js::json_quote(config_[i].first);
      out += ':';
      out += config_[i].second;
    }
    // Every figure records the SIMD dispatch level it actually ran with,
    // so baseline diffs across machines / UOI_SIMD legs are attributable.
    if (!config_.empty()) out += ',';
    out += "\"simd\":";
    out += js::json_quote(uoi::linalg::simd::simd_level_name(
        uoi::linalg::simd::resolve_simd_level()));
    out += "},\"wall_seconds\":";
    out += js::json_number(report.wall_seconds);
    out += ",\"n_ranks\":" + std::to_string(report.n_ranks);
    out += ",\"buckets\":{\"computation\":";
    out += js::json_number(report.computation_seconds);
    out += ",\"communication\":";
    out += js::json_number(report.communication_seconds);
    out += ",\"distribution\":";
    out += js::json_number(report.distribution_seconds);
    out += ",\"data_io\":";
    out += js::json_number(report.data_io_seconds);
    out += "},\"imbalance\":{\"compute_max_over_mean\":";
    out += js::json_number(report.compute_max_over_mean);
    out += ",\"compute_cv\":";
    out += js::json_number(report.compute_cv);
    out += ",\"straggler_rank\":" + std::to_string(report.straggler_rank);
    out += ",\"allreduce_skew_seconds\":";
    out += js::json_number(report.allreduce_skew_seconds);
    out += ",\"allreduce_max_over_mean\":";
    out += js::json_number(report.allreduce_max_over_mean);
    out += ",\"critical_path_seconds\":";
    out += js::json_number(report.critical_path_seconds);
    out += ",\"critical_path_fraction\":";
    out += js::json_number(report.critical_path_fraction);
    out += "},\"percentiles\":{";
    for (std::size_t i = 0; i < report.latency.size(); ++i) {
      const auto& lat = report.latency[i];
      if (i > 0) out += ',';
      out += js::json_quote(uoi::support::to_string(lat.category));
      out += ":{\"count\":" + std::to_string(lat.count);
      out += ",\"mean\":" + js::json_number(lat.mean_seconds);
      out += ",\"p50\":" + js::json_number(lat.p50_seconds);
      out += ",\"p95\":" + js::json_number(lat.p95_seconds);
      out += ",\"p99\":" + js::json_number(lat.p99_seconds);
      out += ",\"max\":" + js::json_number(lat.max_seconds);
      out += '}';
    }
    out += "}}\n";

    const std::string path = bench_output_dir() + "/BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw uoi::support::IoError("cannot open bench telemetry file: " + path);
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok) {
      throw uoi::support::IoError("short write to bench telemetry file: " +
                                  path);
    }
    std::printf("bench telemetry: wrote %s\n", path.c_str());
  }

  std::string figure_;
  std::vector<std::pair<std::string, std::string>> config_;
  uoi::support::Stopwatch watch_;
};

}  // namespace uoi::bench
