#include "support/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"

namespace uoi::support {

namespace {

thread_local int t_thread_rank = 0;

std::atomic<int> g_next_tid{0};

std::chrono::steady_clock::rep now_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// Stable per-OS-thread id for the Chrome trace's tid field.
int this_thread_tid() {
  thread_local int tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// All JSON emitters share one escaper (support/json.hpp) so a name with
/// quotes, backslashes, or control characters can never corrupt a file.
void append_json_escaped(std::string& out, std::string_view s) {
  json_escape(out, s);
}

std::string format_double(double value) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << value;
  return os.str();
}

}  // namespace

const char* to_string(TraceCategory category) {
  switch (category) {
    case TraceCategory::kComputation:
      return "computation";
    case TraceCategory::kCommunication:
      return "communication";
    case TraceCategory::kDistribution:
      return "distribution";
    case TraceCategory::kDataIo:
      return "data-io";
    case TraceCategory::kFault:
      return "fault";
    case TraceCategory::kRecovery:
      return "recovery";
    case TraceCategory::kGram:
      return "gram";
    default:
      return "?";
  }
}

bool trace_category_from_string(std::string_view name, TraceCategory& out) {
  for (int c = 0; c < static_cast<int>(TraceCategory::kCategoryCount); ++c) {
    const auto category = static_cast<TraceCategory>(c);
    if (name == to_string(category)) {
      out = category;
      return true;
    }
  }
  return false;
}

TraceTotals& TraceTotals::operator+=(const TraceTotals& other) {
  for (std::size_t c = 0; c < entries.size(); ++c) {
    entries[c].calls += other.entries[c].calls;
    entries[c].seconds += other.entries[c].seconds;
  }
  return *this;
}

TraceTotals& TraceTotals::operator-=(const TraceTotals& other) {
  for (std::size_t c = 0; c < entries.size(); ++c) {
    entries[c].calls -= other.entries[c].calls;
    entries[c].seconds -= other.entries[c].seconds;
  }
  return *this;
}

Tracer::Tracer() : epoch_ticks_(now_ticks()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_capture_events(bool value) {
  capture_events_.store(value, std::memory_order_relaxed);
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    for (auto& [rank, shard] : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mutex);
      shard->active = false;
      shard->totals = TraceTotals{};
      shard->histograms = CategoryHistograms{};
      shard->events.clear();
    }
  }
  epoch_ticks_.store(now_ticks(), std::memory_order_relaxed);
}

void Tracer::set_thread_rank(int rank) { t_thread_rank = rank < 0 ? 0 : rank; }

int Tracer::thread_rank() { return t_thread_rank; }

double Tracer::now_seconds() const {
  const std::chrono::steady_clock::duration since_epoch(
      now_ticks() - epoch_ticks_.load(std::memory_order_relaxed));
  return std::chrono::duration<double>(since_epoch).count();
}

Tracer::Shard& Tracer::shard(int rank) {
  // A rank thread records for one rank; caching its shard skips the map.
  thread_local int cached_rank = -1;
  thread_local Shard* cached = nullptr;
  if (cached != nullptr && cached_rank == rank) return *cached;
  std::lock_guard<std::mutex> lock(shards_mutex_);
  auto& slot = shards_[rank];
  if (!slot) slot = std::make_unique<Shard>();
  cached_rank = rank;
  cached = slot.get();
  return *cached;
}

template <typename Fn>
void Tracer::for_each_active_shard(Fn&& fn) const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& [rank, shard] : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    if (shard->active) fn(rank, *shard);
  }
}

void Tracer::record(std::string name, TraceCategory category, int rank,
                    double start_seconds, double duration_seconds) {
  record(std::move(name), category, rank, start_seconds, duration_seconds,
         TraceStamp{});
}

void Tracer::record(std::string name, TraceCategory category, int rank,
                    double start_seconds, double duration_seconds,
                    const TraceStamp& stamp) {
  if (rank < 0) rank = thread_rank();
  const bool capture = capture_events();
  Shard& s = shard(rank);
  std::lock_guard<std::mutex> lock(s.mutex);
  s.active = true;
  auto& entry = s.totals.of(category);
  ++entry.calls;
  entry.seconds += duration_seconds;
  s.histograms[static_cast<std::size_t>(category)].add(duration_seconds);
  if (capture) {
    s.events.push_back(TraceEvent{std::move(name), category, rank,
                                  this_thread_tid(), start_seconds,
                                  duration_seconds, stamp});
  }
}

void Tracer::record_complete(std::string name, TraceCategory category,
                             int rank, double duration_seconds) {
  const double end = now_seconds();
  record(std::move(name), category, rank,
         std::max(0.0, end - duration_seconds), duration_seconds);
}

void Tracer::instant(std::string name, TraceCategory category, int rank) {
  record(std::move(name), category, rank, now_seconds(), 0.0);
}

TraceTotals Tracer::totals(int rank) const {
  TraceTotals out;
  for_each_active_shard([&](int r, const Shard& s) {
    if (r == rank) out = s.totals;
  });
  return out;
}

TraceTotals Tracer::totals() const {
  TraceTotals all;
  for_each_active_shard([&](int, const Shard& s) { all += s.totals; });
  return all;
}

std::vector<int> Tracer::ranks() const {
  std::vector<int> out;
  for_each_active_shard([&](int rank, const Shard&) { out.push_back(rank); });
  return out;  // std::map iteration order == ascending
}

std::map<int, TraceTotals> Tracer::all_totals() const {
  std::map<int, TraceTotals> out;
  for_each_active_shard(
      [&](int rank, const Shard& s) { out.emplace(rank, s.totals); });
  return out;
}

LogHistogram Tracer::histogram(int rank, TraceCategory category) const {
  LogHistogram out;
  for_each_active_shard([&](int r, const Shard& s) {
    if (r == rank) out = s.histograms[static_cast<std::size_t>(category)];
  });
  return out;
}

LogHistogram Tracer::histogram(TraceCategory category) const {
  LogHistogram merged;
  for_each_active_shard([&](int, const Shard& s) {
    merged.merge(s.histograms[static_cast<std::size_t>(category)]);
  });
  return merged;
}

std::map<int, CategoryHistograms> Tracer::all_histograms() const {
  std::map<int, CategoryHistograms> out;
  for_each_active_shard(
      [&](int rank, const Shard& s) { out.emplace(rank, s.histograms); });
  return out;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  for_each_active_shard([&](int, const Shard& s) {
    out.insert(out.end(), s.events.begin(), s.events.end());
  });
  // Shards come in rank order and keep record order, so ties on
  // (rank, start, name) keep their record order.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.start_seconds != b.start_seconds) {
                       return a.start_seconds < b.start_seconds;
                     }
                     return a.name < b.name;
                   });
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t count = 0;
  for_each_active_shard(
      [&](int, const Shard& s) { count += s.events.size(); });
  return count;
}

namespace {

/// Stable flow-event id for a matched p2p message edge: both sides of the
/// pair agree on (comm, source, destination, tag, edge), so Perfetto draws
/// one arrow from the send span's end to the recv span's end.
std::string flow_edge_id(const TraceEvent& e) {
  const bool is_send = e.stamp.flow == kFlowSend;
  const int src = is_send ? e.rank : e.stamp.peer;
  const int dst = is_send ? e.stamp.peer : e.rank;
  return std::to_string(e.stamp.comm) + ":" + std::to_string(src) + ":" +
         std::to_string(dst) + ":" + std::to_string(e.stamp.tag) + ":" +
         std::to_string(e.stamp.edge);
}

void append_stamp_args(std::string& buffer, const TraceStamp& s) {
  buffer += ",\"args\":{\"comm\":";
  buffer += std::to_string(s.comm);
  buffer += ",\"seq\":";
  buffer += std::to_string(s.seq);
  buffer += ",\"peer\":";
  buffer += std::to_string(s.peer);
  buffer += ",\"tag\":";
  buffer += std::to_string(s.tag);
  buffer += ",\"edge\":";
  buffer += std::to_string(s.edge);
  buffer += ",\"flow\":";
  buffer += std::to_string(s.flow);
  buffer += "}";
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& out) const {
  const auto sorted = events();
  std::string buffer;
  buffer.reserve(sorted.size() * 128 + 16);
  buffer += "[\n";
  bool first = true;
  const auto begin_entry = [&buffer, &first]() {
    if (!first) buffer += ",\n";
    first = false;
  };
  for (const TraceEvent& e : sorted) {
    begin_entry();
    buffer += "{\"name\":\"";
    append_json_escaped(buffer, e.name);
    buffer += "\",\"cat\":\"";
    append_json_escaped(buffer, to_string(e.category));
    buffer += "\",\"ph\":\"X\",\"pid\":";
    buffer += std::to_string(e.rank);
    buffer += ",\"tid\":";
    buffer += std::to_string(e.tid);
    buffer += ",\"ts\":";
    buffer += format_double(e.start_seconds * 1e6);
    buffer += ",\"dur\":";
    buffer += format_double(e.duration_seconds * 1e6);
    if (e.stamp.stamped()) append_stamp_args(buffer, e.stamp);
    buffer += "}";
    // Matched p2p message edges additionally get Chrome flow events so
    // Perfetto renders the cross-rank causality arrows: ph:"s" anchored at
    // the send span's end, ph:"f" (bp:"e") at the matching recv span's end.
    if (e.stamp.stamped() && e.stamp.flow != kFlowNone && e.stamp.peer >= 0) {
      const bool is_send = e.stamp.flow == kFlowSend;
      const double anchor = (e.start_seconds + e.duration_seconds) * 1e6;
      begin_entry();
      buffer += "{\"name\":\"msg\",\"cat\":\"communication\",\"ph\":\"";
      buffer += is_send ? "s" : "f";
      buffer += "\"";
      if (!is_send) buffer += ",\"bp\":\"e\"";
      buffer += ",\"pid\":";
      buffer += std::to_string(e.rank);
      buffer += ",\"tid\":";
      buffer += std::to_string(e.tid);
      buffer += ",\"ts\":";
      buffer += format_double(anchor);
      buffer += ",\"id\":\"";
      append_json_escaped(buffer, flow_edge_id(e));
      buffer += "\"}";
    }
  }
  buffer += "\n]\n";
  out << buffer;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw IoError("cannot open trace file for writing: " + path);
  }
  write_chrome_trace(static_cast<std::ostream&>(file));
  file.flush();
  if (!file) {
    throw IoError("failed writing trace file: " + path);
  }
}

TraceScope::TraceScope(const char* name, TraceCategory category, int rank,
                       IntervalTimer* mirror)
    : name_(name),
      category_(category),
      rank_(rank),
      mirror_(mirror),
      start_seconds_(Tracer::instance().now_seconds()) {
  if (mirror_ != nullptr) mirror_->start();
}

TraceScope::~TraceScope() {
  auto& tracer = Tracer::instance();
  const double duration = tracer.now_seconds() - start_seconds_;
  tracer.record(name_, category_, rank_, start_seconds_,
                std::max(0.0, duration));
  if (mirror_ != nullptr) mirror_->stop();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::add(int rank, std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[{rank, std::string(name)}] += delta;
}

void MetricsRegistry::set(int rank, std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[{rank, std::string(name)}] = value;
}

double MetricsRegistry::value(int rank, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = values_.find({rank, std::string(name)});
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    out.push_back(Entry{key.first, key.second, value});
  }
  return out;  // std::map iteration order == sorted by (rank, name)
}

std::string MetricsRegistry::to_json() const {
  const auto entries = snapshot();
  std::string out = "{\"metrics\":[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += "{\"rank\":";
    out += std::to_string(entries[i].rank);
    out += ",\"name\":\"";
    append_json_escaped(out, entries[i].name);
    out += "\",\"value\":";
    out += format_double(entries[i].value);
    out += "}";
    if (i + 1 < entries.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

}  // namespace uoi::support
