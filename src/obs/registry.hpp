// Deterministic telemetry registry: typed counters, gauges and fixed-bucket
// histograms accumulated per-thread without locks.
//
// Design contract (the reason this file exists at all): enabling telemetry
// must NEVER change a fixed-seed trajectory. Every rule below serves that:
//
//  * No RNG draws anywhere in this subsystem.
//  * No ordering effects: each thread writes only its own lane (a flat
//    array of u64 slots reached through a `thread_local` pointer), so
//    instrumented code performs no synchronization and takes no locks on
//    the hot path. Which thread executed which shard becomes irrelevant at
//    merge time because every merge operator is commutative and
//    associative over u64 (counters/histograms: wrapping sum; gauges: max).
//  * Merges happen only between phases on a quiescent thread (the cycle
//    barrier, end of run, a cycle hook) — `WorkerPool::run`'s completion
//    handshake establishes the happens-before edge that makes the lane
//    reads race-free.
//  * The disabled path is one relaxed atomic load and a predictable
//    branch; no clocks are read and no TLS is touched, so `--stats` off
//    costs nothing measurable even at similarity-evaluation call rates
//    (tens of millions of calls per macro run).
//
// Canonical output: `Registry::snapshot()` merges lanes in acquisition
// order and emits metrics sorted by name, so two runs that performed the
// same work produce byte-identical stats regardless of thread scheduling.
//
// Registration is idempotent by name and cheap enough to hide behind a
// function-local static at each instrumentation site. Metric storage is
// fixed-capacity (kMaxMetrics / kMaxSlots): slots are assigned once under
// the registry mutex and lanes never reallocate, so readers index without
// synchronization hazards.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace whatsup::obs {

// A metric id IS the metric's slot offset within every lane, so the
// enabled hot path is `lane[id] += v` with no indirection.
using MetricId = std::uint32_t;

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

// Histograms need their bucket bounds at observe time; the id carries the
// metric index so the (out-of-line) observe can find them.
struct HistogramId {
  MetricId offset = 0;       // slot offset of [count, sum, buckets...]
  std::uint32_t index = 0;   // index into the registry's metric table
};

namespace detail {
// Stats master switch. Relaxed is sufficient: the flag only gates whether
// lanes are written, never what the simulation does.
inline std::atomic<bool> g_stats_enabled{false};
// Owning thread's slot array; set on first use via acquire_lane_slots().
inline thread_local std::uint64_t* t_lane_slots = nullptr;
// Out-of-line cold path: registers this thread's lane with the registry.
std::uint64_t* acquire_lane_slots();
}  // namespace detail

inline bool enabled() {
  return detail::g_stats_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// --- registration (idempotent by name; throws on kind mismatch) ---------
MetricId counter(std::string_view name, std::string_view unit = "");
MetricId gauge(std::string_view name, std::string_view unit = "");
HistogramId histogram(std::string_view name, std::span<const std::uint64_t> bounds,
                      std::string_view unit = "");

// Shared bucket bounds for wall-time histograms: 1us .. 1s, x4 per bucket,
// plus an implicit overflow bucket.
std::span<const std::uint64_t> time_bounds_ns();

// --- hot path -----------------------------------------------------------
inline void add(MetricId id, std::uint64_t v = 1) {
  if (!enabled()) return;
  std::uint64_t* slots = detail::t_lane_slots;
  if (slots == nullptr) [[unlikely]] slots = detail::acquire_lane_slots();
  slots[id] += v;
}

inline void gauge_max(MetricId id, std::uint64_t v) {
  if (!enabled()) return;
  std::uint64_t* slots = detail::t_lane_slots;
  if (slots == nullptr) [[unlikely]] slots = detail::acquire_lane_slots();
  if (v > slots[id]) slots[id] = v;
}

// Buckets are upper-inclusive: value <= bounds[i] lands in bucket i; the
// final bucket counts overflow. Out of line — histogram sites fire per
// shard/per barrier slot, not per message.
void observe(HistogramId h, std::uint64_t value);

// Monotonic wall clock in nanoseconds. Telemetry-only: readings feed
// metrics and traces, never simulation decisions.
std::uint64_t now_ns();

// Times a scope into a wall-time histogram; reads no clock when disabled.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(HistogramId h) : h_(h), start_(enabled() ? now_ns() : 0) {}
  ~ScopedTimerNs() {
    if (start_ != 0) observe(h_, now_ns() - start_);
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  HistogramId h_;
  std::uint64_t start_;
};

// --- merged output ------------------------------------------------------
struct MetricValue {
  std::string name;
  Kind kind = Kind::kCounter;
  std::string unit;
  std::uint64_t value = 0;  // counter total / gauge max
  // Histogram only:
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
};

class Registry {
 public:
  // Leaked singleton (same pattern as profile::SnapshotArena): lanes are
  // reachable until process exit, so worker threads that died with their
  // Engine still contribute their totals to later merges.
  static Registry& instance();

  // Canonical merge of every lane; metrics sorted by name. Call only from
  // a thread that is quiescent with respect to instrumented workers.
  std::vector<MetricValue> merge() const;

  // Zeroes every lane slot (counts from dead threads included). Same
  // quiescence requirement as merge().
  void reset();

  std::size_t lanes() const;
  std::size_t metrics() const;

  // Capacity of the fixed metric/slot tables; exceeding either throws at
  // registration time (a programming error, not a runtime condition).
  static constexpr std::size_t kMaxMetrics = 192;
  static constexpr std::size_t kMaxSlots = 2048;

 private:
  Registry() = default;
  friend MetricId counter(std::string_view, std::string_view);
  friend MetricId gauge(std::string_view, std::string_view);
  friend HistogramId histogram(std::string_view, std::span<const std::uint64_t>,
                               std::string_view);
  friend void observe(HistogramId, std::uint64_t);
  friend std::uint64_t* detail::acquire_lane_slots();

  struct Metric {
    std::string name;
    std::string unit;
    Kind kind = Kind::kCounter;
    std::uint32_t offset = 0;  // first lane slot
    std::uint32_t slots = 1;   // 1, or 2 + buckets for histograms
    std::vector<std::uint64_t> bounds;
  };

  MetricId register_metric(std::string_view name, Kind kind,
                           std::span<const std::uint64_t> bounds,
                           std::string_view unit, std::uint32_t* index_out);

  struct Impl;
  Impl& impl() const;
};

}  // namespace whatsup::obs
