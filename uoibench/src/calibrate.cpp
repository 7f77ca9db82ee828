// uoibench host description and same-run calibration: the peak FP64 rate
// and sustained memory bandwidth the per-layer kernel rates are read
// against. The paper's KNL constants in perfmodel never stand in for these.

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "linalg/simd.hpp"
#include "support/stopwatch.hpp"

#ifndef UOIBENCH_BUILD_TYPE
#define UOIBENCH_BUILD_TYPE "unknown"
#endif

namespace uoibench {

namespace {

/// Total last-level cache: the per-instance size of the last level the
/// library reports (simd::cache_sizes), times the number of distinct
/// instances of that level (sysfs shared_cpu_list); 32 MiB if unknown.
std::uint64_t total_llc_bytes() {
  const auto sizes = uoi::linalg::simd::cache_sizes();
  const int level = sizes.l3 > 0 ? 3 : 2;
  const long size = sizes.l3 > 0 ? sizes.l3 : sizes.l2;
  if (size <= 0) return 32ULL << 20;
  // The sysfs cache index of that level on cpu0.
  const std::string root = "/sys/devices/system/cpu/cpu";
  std::string index;
  for (int i = 0; i < 8 && index.empty(); ++i) {
    std::ifstream f(root + "0/cache/index" + std::to_string(i) + "/level");
    int l = 0;
    if (f >> l && l == level) index = "index" + std::to_string(i);
  }
  // Count the distinct sharing sets of that level across all CPUs.
  std::vector<std::string> sets;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < cpus && !index.empty(); ++c) {
    std::ifstream f(root + std::to_string(c) + "/cache/" + index +
                    "/shared_cpu_list");
    std::string list;
    if (f >> list && std::find(sets.begin(), sets.end(), list) == sets.end()) {
      sets.push_back(list);
    }
  }
  return static_cast<std::uint64_t>(size) *
         std::max<std::size_t>(1, sets.size());
}

// Register-resident multiply-add chains: 8 independent accumulators of
// one vector register each, so the loop is bound by FMA throughput. Each
// variant is compiled for its ISA only; the caller picks the one for the
// library's dispatch level (simd::resolve_simd_level).
using v8d = double __attribute__((vector_size(64)));
using v4d = double __attribute__((vector_size(32)));
using v2d = double __attribute__((vector_size(16)));

template <typename V>
__attribute__((always_inline)) inline double fma_chain(std::uint64_t iters,
                                                       double seed) {
  V a0, a1, a2, a3, a4, a5, a6, a7, m, c;
  const double s = seed;
  for (unsigned i = 0; i < sizeof(V) / sizeof(double); ++i) {
    a0[i] = s;
    a1[i] = s + 1;
    a2[i] = s + 2;
    a3[i] = s + 3;
    a4[i] = s + 4;
    a5[i] = s + 5;
    a6[i] = s + 6;
    a7[i] = s + 7;
    m[i] = 0.999999;
    c[i] = 1e-7;
  }
  for (std::uint64_t it = 0; it < iters; ++it) {
    a0 = a0 * m + c;
    a1 = a1 * m + c;
    a2 = a2 * m + c;
    a3 = a3 * m + c;
    a4 = a4 * m + c;
    a5 = a5 * m + c;
    a6 = a6 * m + c;
    a7 = a7 * m + c;
  }
  const V t = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  double r = 0.0;
  for (unsigned i = 0; i < sizeof(V) / sizeof(double); ++i) r += t[i];
  return r;
}

__attribute__((target("avx512f,fma"))) double fma_avx512(std::uint64_t n,
                                                          double s) {
  return fma_chain<v8d>(n, s);
}
__attribute__((target("avx2,fma"))) double fma_avx2(std::uint64_t n,
                                                     double s) {
  return fma_chain<v4d>(n, s);
}
double fma_sse2(std::uint64_t n, double s) { return fma_chain<v2d>(n, s); }

struct FmaKernel {
  double (*run)(std::uint64_t, double);
  double flops_per_iter;  // 8 accumulators x lanes x (mul + add)
};

FmaKernel fma_kernel(uoi::linalg::simd::SimdLevel level) {
  switch (level) {
    case uoi::linalg::simd::SimdLevel::kAvx512:
      return {fma_avx512, 8.0 * 8 * 2};
    case uoi::linalg::simd::SimdLevel::kAvx2:
      return {fma_avx2, 8.0 * 4 * 2};
    case uoi::linalg::simd::SimdLevel::kScalar:
      break;
  }
  return {fma_sse2, 8.0 * 2 * 2};
}

/// Runs `body(t)` on `threads` threads at once and returns the wall time.
template <typename Body>
double timed_parallel(int threads, Body body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  uoi::support::Stopwatch watch;
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (auto& th : pool) th.join();
  return watch.seconds();
}

}  // namespace

HostInfo host_info(int rank_threads) {
  HostInfo h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.rank_threads = rank_threads;
  h.oversubscribed = static_cast<unsigned>(rank_threads) > h.nproc;
  h.simd_level = uoi::linalg::simd::simd_level_name(
      uoi::linalg::simd::resolve_simd_level());
  h.build_type = UOIBENCH_BUILD_TYPE;
  h.llc_bytes = total_llc_bytes();
  return h;
}

Calibration calibrate(int threads, std::uint64_t array_bytes) {
  Calibration cal;
  cal.array_bytes = array_bytes;

  // Peak: median of 5 repetitions of ~50 ms each.
  const FmaKernel kernel =
      fma_kernel(uoi::linalg::simd::resolve_simd_level());
  const std::uint64_t iters = 20'000'000;
  std::vector<double> sink(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double secs = timed_parallel(threads, [&](int t) {
      sink[static_cast<std::size_t>(t)] += kernel.run(iters, 1.0 + t);
    });
    rates.push_back(kernel.flops_per_iter * static_cast<double>(iters) *
                    threads / secs / 1e9);
  }
  cal.peak_gflops = quantile(rates, 0.5);

  // Bandwidth: b = s * a over two arrays of array_bytes each, threads
  // owning contiguous slices (first touch by the owning thread). Counts
  // the bytes read plus the bytes written per pass.
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  const auto slice = [&](int t) {
    return std::pair<std::size_t, std::size_t>{
        n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads),
        n * static_cast<std::size_t>(t + 1) /
            static_cast<std::size_t>(threads)};
  };
  timed_parallel(threads, [&](int t) {
    const auto [lo, hi] = slice(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 1.0 + static_cast<double>(i & 7);
      b[i] = 0.0;
    }
  });
  std::vector<double> bws;
  for (int rep = 0; rep < 4; ++rep) {
    const double scale = 1.0 + 1e-3 * rep;
    const double secs = timed_parallel(threads, [&](int t) {
      const auto [lo, hi] = slice(t);
      double* __restrict dst = b.get();
      const double* __restrict src = a.get();
      for (std::size_t i = lo; i < hi; ++i) dst[i] = scale * src[i];
    });
    bws.push_back(2.0 * static_cast<double>(n * sizeof(double)) / secs / 1e9);
  }
  cal.stream_gbs = quantile(bws, 0.5);
  // Consume the results so neither loop can be optimized away.
  cal.checksum = b[n / 2];
  for (double s : sink) cal.checksum += s;
  return cal;
}

}  // namespace uoibench
