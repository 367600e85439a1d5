#pragma once
// Process-wide metrics registry: named counters and gauges, each optionally
// carrying a label set.
//
// The rule: a component's counts live in its own stats (LsmStats,
// SloAccountant, ResilienceStats, the FlowSimulator accessors,
// sched::RunResult, ExecStats), which benches and tests read directly. The
// registry holds only metrics that something reads back from it, and no
// copy of a component stat. Today that is `accel.simd_rows{kernel}` (rows
// through each SIMD kernel, read by perfbench's lsm_analytics). Latency
// distributions are not kept here either: each owner records them exactly
// in a sim::PercentileTracker. A site that does publish stays cheap:
//
//  * Counters increment a sharded, cache-line-padded atomic — concurrent
//    dataflow workers never contend on one line.
//  * Metric objects are created once (mutex-protected name lookup) and then
//    held by pointer/reference; the hot path never touches the registry map.
//  * The whole subsystem is gated on a single runtime flag (`obs::enabled()`,
//    default off): instrumentation sites test one relaxed atomic load and a
//    well-predicted branch, measured <2% on the max-min inner loop by
//    `bench_obs_overhead`.
//
// This module sits below rb_sim in the dependency order (it knows nothing
// about simulated time); callers pass plain numbers.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rb::obs {

/// --- Global runtime switch -------------------------------------------------

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when metric/trace collection is on. Registry writes and the
/// TraceRecorder spans guard with this; when false the registry is never
/// touched (zero allocation, one relaxed load per site).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// --- Metric types -----------------------------------------------------------

/// Monotonic counter, sharded across cache lines so that concurrent
/// increments from N threads scale; value() folds the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zero every shard in place. Test/bench-scenario use only: racing
  /// writers may be partially counted.
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t shard_index() noexcept {
    // One shard per thread, assigned round-robin on first use.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  std::array<Shard, kShards> shards_;
};

/// Last-write-wins floating-point gauge (queue depth, utilization, occupancy).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// --- Registry ---------------------------------------------------------------

/// Sorted (key, value) label pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Flat view of one metric instance, used by exporters and tests.
struct MetricSample {
  enum class Kind { kCounter, kGauge };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter value or gauge level
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Returned references are stable for the registry's
  /// lifetime; callers cache them and increment without further lookups.
  /// A name+labels key always maps to one metric kind; a kind mismatch
  /// throws std::invalid_argument.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});

  /// Stable-ordered flat snapshot (sorted by name, then labels).
  std::vector<MetricSample> snapshot() const;

  /// {"metrics":[{name, labels{...}, kind, value...}...]}
  std::string to_json() const;

  /// Zero every metric's value IN PLACE — entry identity and previously
  /// returned references stay valid, so cached instrumentation pointers
  /// keep working. The one way for tests and multi-scenario benches to
  /// stop counters leaking across cases; entries are never dropped.
  void reset_for_test();

  /// The process-wide registry that instrumented library code reports into.
  static Registry& global();

 private:
  struct Entry {
    MetricSample::Kind kind;
    Labels labels;
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
  };

  static std::string make_key(std::string_view name, const Labels& labels);
  Entry& find_or_create(std::string_view name, Labels labels,
                        MetricSample::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace rb::obs
