// uoibench: times complete distributed UoI fits on one named workload and
// prints every metric by name with its unit, then one JSON result line.
//
//   uoibench --workload <lasso-comm|lasso-wide|var-granger> --seed N
//            --seconds S --trace <0|1> [--work-dir DIR] [--size tiny]
//
// --trace 0: end-to-end metrics with tracing off (set-up time, fit time
//            median and tail, peak RSS, recovery quality).
// --trace 1: per-layer metrics from a traced fit plus direct, timed calls
//            into each layer, and the tracing overhead from interleaved
//            traced/untraced fits.
// Every fit's beta must be byte-identical to its replicate's first fit;
// any failed check counts in `failed`, marks the result incorrect and
// exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "io/h5lite.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace {

using uoibench::Metric;
using uoibench::Tally;

/// Independent problems generated from one seed.
constexpr int kReplicates = 8;
/// Whole cycles over the replicates a --trace 0 run times at least, so that
/// fit_tail_s (>= 10 samples beyond it) is a tail even on a slow host.
constexpr std::size_t kMinCycles = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  bool tiny = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "uoibench: %s\nusage: uoibench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--size tiny]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--size") {
      if (val != "tiny" && val != "full") usage("--size is tiny or full");
      a.tiny = val == "tiny";
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace is 0 or 1");
  return a;
}

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Runs one distributed fit, checks its beta against `reference` (when
/// given) and returns its seconds, or a negative value on failure.
double checked_fit(const uoibench::Workload& w, const uoibench::Problem& pr,
                   const uoi::linalg::Vector* reference,
                   uoi::linalg::Vector* beta_out, Tally& tally) {
  ++tally.attempted;
  try {
    auto fit = uoibench::fit_distributed(w, pr);
    if (reference != nullptr &&
        !uoibench::byte_identical(fit.beta, *reference)) {
      std::fprintf(stderr, "FAIL: fit %ld beta differs from the first fit\n",
                   tally.attempted);
      ++tally.failed;
      return -1.0;
    }
    if (beta_out != nullptr) *beta_out = std::move(fit.beta);
    return fit.seconds;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: fit %ld threw: %s\n", tally.attempted,
                 e.what());
    ++tally.failed;
    return -1.0;
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  uoibench::Workload w;
  try {
    w = uoibench::make_workload(args.workload, args.tiny);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const auto host = uoibench::host_info(w.ranks);
  std::printf("workload %s  seed %llu  seconds %g  trace %d  size %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.tiny ? "tiny" : "full");
  std::printf("host: {\"nproc\": %u, \"rank_threads\": %d, "
              "\"oversubscribed\": %s, \"simd\": \"%s\", \"build\": \"%s\", "
              "\"seed\": %llu}\n",
              host.nproc, host.rank_threads,
              host.oversubscribed ? "true" : "false", host.simd_level.c_str(),
              host.build_type.c_str(),
              static_cast<unsigned long long>(args.seed));
  if (host.oversubscribed) {
    std::printf("** OVERSUBSCRIBED: %d rank threads on %u cores; timings are "
                "not comparable **\n", host.rank_threads, host.nproc);
  }
  uoi::support::Tracer::instance().set_capture_events(false);

  std::vector<Metric> metrics;
  Tally tally;
  const auto ok = [&] { return tally.failed == 0; };

  // ---- Set-up: generate the problem replicates (and write VAR series) ----
  // Timed once per replicate here and three more times after every timed
  // fit (those copies are discarded), so the median samples the whole run
  // rather than one burst at its start.
  std::vector<double> setup_times;
  const auto timed_setup = [&](int r) {
    uoi::support::Stopwatch watch;
    auto pr = uoibench::setup_problem(w, args.seed, r, args.work_dir);
    setup_times.push_back(watch.seconds());
    return pr;
  };
  std::vector<uoibench::Problem> problems;
  for (int r = 0; r < kReplicates; ++r) problems.push_back(timed_setup(r));

  // A replicate's first fit is its bitwise reference; every later fit of
  // it must reproduce those bytes. The reference must also recover part of
  // the true support with a finite error.
  std::vector<uoi::linalg::Vector> references(kReplicates);
  uoibench::Quality quality;
  const auto fit_replicate = [&](int r) {
    const bool first = references[r].empty();
    const double t =
        checked_fit(w, problems[r], first ? nullptr : &references[r],
                    first ? &references[r] : nullptr, tally);
    if (first && t >= 0.0) {
      const auto q = uoibench::score(references[r], problems[r].beta_true);
      quality.support_f1 += q.support_f1 / kReplicates;
      quality.false_positives += q.false_positives / kReplicates;
      quality.rel_l2_err += q.rel_l2_err / kReplicates;
      if (!(q.support_f1 > 0.0) || !std::isfinite(q.rel_l2_err)) {
        std::fprintf(stderr,
                     "FAIL: replicate %d support F1 %.3g, rel_l2_err %.3g\n",
                     r, q.support_f1, q.rel_l2_err);
        ++tally.failed;
        return -1.0;
      }
    }
    return t;
  };

  // ---- Warm-up: replicate 0's reference fit, untimed ----
  (void)fit_replicate(0);

  // Timed fits cycle through the replicates, so one run's timings do not
  // hinge on one dataset's convergence speed.
  std::vector<double> fit_times;
  std::vector<std::vector<double>> replicate_times(kReplicates);
  const uoi::support::Stopwatch budget;
  if (args.trace == 0) {
    // ---- Timed fits, tracing off, in whole cycles over the replicates ----
    for (std::size_t i = 0; ok(); ++i) {
      const int r = static_cast<int>(i % kReplicates);
      if (r == 0 && i >= kMinCycles * kReplicates &&
          budget.seconds() >= args.seconds) {
        break;
      }
      const double t = fit_replicate(r);
      if (t < 0.0) break;
      fit_times.push_back(t);
      replicate_times[r].push_back(t);
      for (int rep = 0; rep < 3; ++rep) (void)timed_setup(r);
    }
  } else {
    // ---- Interleaved untraced/traced pairs: the tracing overhead ----
    auto& tracer = uoi::support::Tracer::instance();
    std::vector<double> overhead;
    for (std::size_t pair = 0;
         ok() && (pair < kReplicates || budget.seconds() < args.seconds);
         ++pair) {
      const int r = static_cast<int>(pair % kReplicates);
      double t[2] = {0.0, 0.0};  // [untraced, traced]
      for (int step = 0; step < 2; ++step) {
        const int traced = (step + static_cast<int>(pair / kReplicates)) % 2;
        tracer.clear();
        tracer.set_capture_events(traced == 1);
        t[traced] = fit_replicate(r);
        tracer.set_capture_events(false);
        tracer.clear();
      }
      if (t[0] < 0.0 || t[1] < 0.0) break;
      fit_times.push_back(t[0]);
      replicate_times[r].push_back(t[0]);
      overhead.push_back(100.0 * (t[1] - t[0]) / t[0]);
    }
    if (ok()) {
      const double oh = uoibench::quantile(overhead, 0.5);
      std::printf("trace overhead: median %.2f%%  IQR [%.2f%%, %.2f%%] over "
                  "%zu interleaved pairs\n",
                  oh, uoibench::quantile(overhead, 0.25),
                  uoibench::quantile(overhead, 0.75), overhead.size());
      metrics.push_back({"trace.overhead_pct", oh, "%"});
      try {
        uoibench::measure_layers(w, problems[0], references[0],
                                 uoibench::quantile(replicate_times[0], 0.5),
                                 host, args.tiny, metrics, tally);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL: layer measurement threw: %s\n", e.what());
        ++tally.failed;
      }
    }
  }
  for (const auto& pr : problems) {
    for (std::uint64_t k = 0; k < 2 && !pr.dataset_base.empty(); ++k) {
      std::remove(uoi::io::stripe_path(pr.dataset_base, k).c_str());
    }
  }

  const bool correct = ok();
  const double fail_frac =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("fits: %zu timed over %d replicates (+1 warm-up), %ld "
              "attempted, %ld failed\n",
              fit_times.size(), kReplicates, tally.attempted, tally.failed);
  std::printf("setup seconds over %zu repetitions: min %.6f  p25 %.6f  "
              "p50 %.6f  p75 %.6f  max %.6f\n",
              setup_times.size(), uoibench::quantile(setup_times, 0.0),
              uoibench::quantile(setup_times, 0.25),
              uoibench::quantile(setup_times, 0.5),
              uoibench::quantile(setup_times, 0.75),
              uoibench::quantile(setup_times, 1.0));
  std::printf("median fit seconds per replicate:");
  for (const auto& times : replicate_times) {
    std::printf(" %.4f", uoibench::quantile(times, 0.5));
  }
  std::printf("\n");
  if (args.trace == 0) {
    // Highest percentile with at least ten samples beyond it (kMinCycles
    // guarantees n >= 24 on a passing run).
    const double n = static_cast<double>(fit_times.size());
    const double tail_q =
        std::clamp(std::floor(100.0 * (1.0 - 10.0 / n)), 50.0, 99.0);
    std::printf("fit_tail_s is p%.0f of %zu fits; fit seconds min %.4f  "
                "p25 %.4f  p50 %.4f  p75 %.4f  max %.4f\n",
                tail_q, fit_times.size(), uoibench::quantile(fit_times, 0.0),
                uoibench::quantile(fit_times, 0.25),
                uoibench::quantile(fit_times, 0.5),
                uoibench::quantile(fit_times, 0.75),
                uoibench::quantile(fit_times, 1.0));
    // Each replicate's median over its repeats, averaged over replicates,
    // rather than the median of all fits: robust to a stray slow fit, and
    // every replicate weighs the same whatever its number of repeats.
    double fit_s = 0.0;
    for (const auto& times : replicate_times) {
      fit_s += uoibench::quantile(times, 0.5) / kReplicates;
    }
    metrics.push_back({"fit_s", fit_s, "s"});
    metrics.push_back(
        {"fit_tail_s", uoibench::quantile(fit_times, tail_q / 100.0), "s"});
    metrics.push_back({"setup_s", uoibench::quantile(setup_times, 0.5), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  } else {
    metrics.push_back({"support_f1", quality.support_f1, "ratio"});
    metrics.push_back({"false_positives", quality.false_positives, "count"});
    metrics.push_back({"rel_l2_err", quality.rel_l2_err, "ratio"});
    metrics.push_back({"fail_frac", fail_frac, "ratio"});
  }
  std::printf("quality (mean of %d replicates): support_f1 %.4f  "
              "false_positives %.2f  rel_l2_err %.5f  fail_frac %.3f\n",
              kReplicates, quality.support_f1, quality.false_positives,
              quality.rel_l2_err, fail_frac);
  for (const auto& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
