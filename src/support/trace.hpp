#pragma once
// Per-rank tracing and unified metrics export.
//
// The paper's HPC analysis lives and dies by *where the time goes*: every
// runtime figure decomposes runs into computation / communication /
// distribution / data-I/O buckets, and the follow-up optimization work
// (arXiv:1808.06992) derives each scaling fix from that attribution. This
// header provides the observability layer the drivers and the simulated
// cluster report through:
//
//   - TraceCategory: the paper's four buckets plus fault/recovery.
//   - Tracer: a process-wide, thread-safe span recorder. Per-(rank,
//     category) call counts, seconds, and span-latency histograms
//     (support/histogram) are always accumulated (cheap: the clock is
//     lock-free and each rank records into its own shard); full span
//     events are buffered only when capture is enabled, and can be
//     exported as a Chrome-trace-event JSON file (open in Perfetto or
//     chrome://tracing; pid = rank, tid = recording thread).
//   - TraceScope: RAII span. Safe under exceptions — a collective that
//     unwinds with RankFailedError still gets its time attributed.
//   - MetricsRegistry: one named-counter store unifying CommStats,
//     RecoveryStats, and solver counters (ADMM iterations, rho updates,
//     Allreduce bytes) behind a single snapshot/serialize API.
//
// Ranks are threads in uoi::sim, so the tracer keys events by an explicit
// rank id; Cluster binds each rank thread via Tracer::set_thread_rank so
// code that does not know its rank (file I/O, serial drivers) still lands
// on the right timeline. Unbound threads record as rank 0.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/histogram.hpp"
#include "support/stopwatch.hpp"

namespace uoi::support {

/// Span categories: the paper's four runtime buckets plus the
/// fault-tolerance pair added in the robustness work and the Gram/factor
/// setup bucket added with the factorization-reuse layer. (kGram sits at
/// the end so existing category ids stay stable.)
enum class TraceCategory : int {
  kComputation = 0,
  kCommunication,  ///< collectives (Allreduce-dominated in UoI)
  kDistribution,   ///< data movement into task groups (one-sided windows)
  kDataIo,         ///< file reads/writes (H5-lite, CSV, checkpoints)
  kFault,          ///< injected faults and failure detections
  kRecovery,       ///< shrink/agree/backoff time
  kGram,           ///< per-bootstrap Gram + Cholesky setup (cache misses)
  kCategoryCount
};

[[nodiscard]] const char* to_string(TraceCategory category);

/// Inverse of to_string: parses a category name ("computation",
/// "communication", ...). Returns false when `name` is not a category.
[[nodiscard]] bool trace_category_from_string(std::string_view name,
                                              TraceCategory& out);

/// Per-(rank, category) span-latency histograms; always maintained by the
/// Tracer like TraceTotals, so percentiles cost no event capture.
using CategoryHistograms =
    std::array<LogHistogram, static_cast<int>(TraceCategory::kCategoryCount)>;

/// Causal stamp attached to communication spans so merged per-rank traces
/// form a cross-rank event DAG. `comm` identifies the communicator handle
/// (globally unique per uoi::sim::Comm context), `seq` is the per-handle
/// monotone sequence id (bumped for every stamped event on that handle),
/// and `edge` is the cross-rank matching key: collectives share one edge
/// value across all participating ranks (SPMD call order), while p2p edges
/// count per (peer, tag) pair on each side so the n-th send matches the
/// n-th recv (mailboxes are FIFO per (source, destination, tag)). `flow`
/// marks message direction for p2p/one-sided edges.
struct TraceStamp {
  std::int64_t comm = -1;  ///< communicator id (-1: unstamped event)
  std::int64_t seq = -1;   ///< per-communicator monotone sequence id
  int peer = -1;           ///< peer rank (p2p/one-sided), -1 for collectives
  int tag = -1;            ///< p2p message tag, -1 otherwise
  std::int64_t edge = -1;  ///< cross-rank matching key (see above)
  int flow = 0;            ///< 0 = none, 1 = send side, 2 = receive side

  [[nodiscard]] bool stamped() const { return comm >= 0; }
};

inline constexpr int kFlowNone = 0;
inline constexpr int kFlowSend = 1;
inline constexpr int kFlowRecv = 2;

/// One completed span on a rank's timeline. Timestamps are seconds since
/// the tracer's epoch (construction or last clear()).
struct TraceEvent {
  std::string name;
  TraceCategory category = TraceCategory::kComputation;
  int rank = 0;  ///< pid in the Chrome trace
  int tid = 0;   ///< recording thread within the process
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  TraceStamp stamp;  ///< causal stamp; default (comm = -1) means unstamped
};

/// Per-category aggregate totals (always maintained, even when event
/// capture is off).
struct TraceTotals {
  struct Entry {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };
  std::array<Entry, static_cast<int>(TraceCategory::kCategoryCount)> entries{};

  [[nodiscard]] const Entry& of(TraceCategory c) const {
    return entries[static_cast<std::size_t>(c)];
  }
  Entry& of(TraceCategory c) { return entries[static_cast<std::size_t>(c)]; }
  [[nodiscard]] double seconds(TraceCategory c) const { return of(c).seconds; }

  TraceTotals& operator+=(const TraceTotals& other);
  TraceTotals& operator-=(const TraceTotals& other);
};

/// Process-wide span recorder. All methods are thread-safe.
///
/// The span hot path takes no shared lock: now_seconds() reads an atomic
/// epoch, and record() adds to the recording rank's shard — totals,
/// histograms and captured events behind a lock only that rank's threads
/// (and snapshot readers) take. A shard is created the first time its rank
/// records, one per distinct rank id.
class Tracer {
 public:
  static Tracer& instance();

  /// Enables/disables buffering of full span events. Aggregate totals are
  /// always maintained regardless.
  void set_capture_events(bool value);
  [[nodiscard]] bool capture_events() const {
    return capture_events_.load(std::memory_order_relaxed);
  }

  /// Drops all events and totals and restarts the epoch.
  void clear();

  /// Binds the calling thread to a rank; subsequent default-rank spans
  /// recorded from this thread land on that rank's timeline.
  static void set_thread_rank(int rank);
  /// The calling thread's bound rank (0 when unbound).
  [[nodiscard]] static int thread_rank();

  /// Seconds since the tracer epoch (the `ts` clock of the trace file).
  [[nodiscard]] double now_seconds() const;

  /// Records a completed span. `start_seconds` is relative to the epoch.
  void record(std::string name, TraceCategory category, int rank,
              double start_seconds, double duration_seconds);

  /// Records a completed span carrying a causal stamp (communication
  /// events; see TraceStamp).
  void record(std::string name, TraceCategory category, int rank,
              double start_seconds, double duration_seconds,
              const TraceStamp& stamp);

  /// Records a span that ends now and lasted `duration_seconds`.
  void record_complete(std::string name, TraceCategory category, int rank,
                       double duration_seconds);

  /// Records a zero-duration marker (fault injections, detections, ...).
  void instant(std::string name, TraceCategory category, int rank);

  /// Aggregate totals for one rank / across all ranks.
  [[nodiscard]] TraceTotals totals(int rank) const;
  [[nodiscard]] TraceTotals totals() const;

  /// Ranks that have recorded at least one span since the last clear(),
  /// ascending.
  [[nodiscard]] std::vector<int> ranks() const;
  /// Every rank's totals (key = rank). Each rank's entry is a consistent
  /// snapshot; entries of different ranks are read one after another, so
  /// spans recorded meanwhile may show on some ranks and not others.
  [[nodiscard]] std::map<int, TraceTotals> all_totals() const;

  /// Span-latency histogram for one (rank, category) / merged across ranks.
  [[nodiscard]] LogHistogram histogram(int rank, TraceCategory category) const;
  [[nodiscard]] LogHistogram histogram(TraceCategory category) const;
  /// Every rank's histograms (key = rank); consistent per rank, like
  /// all_totals().
  [[nodiscard]] std::map<int, CategoryHistograms> all_histograms() const;

  /// Buffered events, sorted by (rank, start, name) — per-rank order is
  /// temporal, so SPMD runs with a fixed seed yield a deterministic
  /// per-rank sequence of (name, category).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Serializes buffered events as a Chrome-trace-event JSON array
  /// (complete events, ph:"X", pid = rank, ts/dur in microseconds).
  void write_chrome_trace(std::ostream& out) const;
  /// As above, to a file; throws uoi::support::IoError on failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  /// One rank's accounting and captured events. Padded so two ranks'
  /// shards never share a cache line.
  struct alignas(64) Shard {
    std::mutex mutex;
    bool active = false;  ///< recorded since the last clear()
    TraceTotals totals;
    CategoryHistograms histograms;
    std::vector<TraceEvent> events;  ///< in record order
  };

  Tracer();

  /// The shard of `rank`, created on first use. Shards live as long as the
  /// tracer (clear() only empties them), so callers may cache the pointer.
  Shard& shard(int rank);

  /// Calls fn(rank, shard) with the shard's lock held, for every shard that
  /// recorded since the last clear(), in ascending rank order.
  template <typename Fn>
  void for_each_active_shard(Fn&& fn) const;

  std::atomic<bool> capture_events_{false};
  /// steady_clock ticks of the epoch; atomic so the clock takes no lock.
  std::atomic<std::chrono::steady_clock::rep> epoch_ticks_;
  mutable std::mutex shards_mutex_;  // guards the map, not the shards
  std::map<int, std::unique_ptr<Shard>> shards_;
};

/// RAII span: attributes the enclosed scope's wall time to (rank,
/// category). `rank < 0` uses the calling thread's bound rank. When a
/// `mirror` IntervalTimer is given, the scope also brackets it with
/// start()/stop() so callers can keep a locally-queryable running total
/// without reading the tracer back.
class TraceScope {
 public:
  explicit TraceScope(const char* name, TraceCategory category, int rank = -1,
                      IntervalTimer* mirror = nullptr);
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

 private:
  const char* name_;
  TraceCategory category_;
  int rank_;
  IntervalTimer* mirror_;
  double start_seconds_;
};

/// Unified named-counter store: CommStats, RecoveryStats, and solver
/// counters all export here, so one snapshot (or one JSON document)
/// describes a whole run. Counters are keyed by (rank, name) and
/// accumulate across add() calls. All methods are thread-safe.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Adds `delta` to the (rank, name) counter (creating it at 0).
  void add(int rank, std::string_view name, double delta);
  /// Overwrites the (rank, name) counter.
  void set(int rank, std::string_view name, double value);
  /// Current value (0 when the counter does not exist).
  [[nodiscard]] double value(int rank, std::string_view name) const;

  struct Entry {
    int rank = 0;
    std::string name;
    double value = 0.0;
  };
  /// Consistent snapshot sorted by (rank, name).
  [[nodiscard]] std::vector<Entry> snapshot() const;
  /// {"metrics": [{"rank": R, "name": "...", "value": V}, ...]}
  [[nodiscard]] std::string to_json() const;

  void clear();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::pair<int, std::string>, double> values_;
};

}  // namespace uoi::support
