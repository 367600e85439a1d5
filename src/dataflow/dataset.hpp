#pragma once
// Partitioned, multithreaded dataset — the working analogue of the
// MapReduce/Spark/Flink collections the roadmap discusses (Sec IV.C).
//
// A Dataset<T> is a set of partitions executed in parallel on a ThreadPool.
// Narrow operators (map/filter/flat_map) run partition-local; wide operators
// (reduce_by_key, group_by_key, join, sort_by_key) perform a hash-partitioned
// shuffle, exactly the structure whose network cost the fabric simulator
// studies at the cluster level. Execution is eager; metrics (rows and bytes
// shuffled) accumulate in the Context so benches can report them.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rb::dataflow {

/// Execution context shared by all datasets of one pipeline: the pool,
/// the default partition count, and shuffle metrics.
class Context {
 public:
  explicit Context(std::size_t partitions = 0, ThreadPool* pool = nullptr)
      : pool_{pool != nullptr ? pool : &default_pool()},
        partitions_{partitions != 0 ? partitions : pool_->size()} {}

  ThreadPool& pool() const noexcept { return *pool_; }
  std::size_t partitions() const noexcept { return partitions_; }

  void note_shuffled_rows(std::uint64_t rows) noexcept {
    shuffled_rows_ += rows;
  }
  std::uint64_t shuffled_rows() const noexcept { return shuffled_rows_; }

  /// In-memory footprint of shuffled rows (rows * sizeof(pair)).
  void note_shuffled_bytes(std::uint64_t bytes) noexcept {
    shuffled_bytes_ += bytes;
  }
  std::uint64_t shuffled_bytes() const noexcept { return shuffled_bytes_; }

 private:
  ThreadPool* pool_;
  std::size_t partitions_;
  std::atomic<std::uint64_t> shuffled_rows_{0};
  std::atomic<std::uint64_t> shuffled_bytes_{0};
};

namespace detail {

/// RAII wall-clock span for a wide operator. Dataflow runs on real threads
/// (no simulated clock), so the span's ts axis is wall-derived picoseconds —
/// see the dual-timestamp note in obs/trace.hpp.
class StageSpan {
 public:
  explicit StageSpan(const char* name)
      : active_{obs::TraceRecorder::global().enabled()},
        name_{name},
        start_us_{active_ ? obs::wall_now_us() : 0} {}
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  ~StageSpan() {
    if (!active_) return;
    const std::int64_t dur_us = obs::wall_now_us() - start_us_;
    obs::TraceRecorder::global().complete(
        "dataflow.stage", name_, start_us_ * 1'000'000,
        std::max<std::int64_t>(dur_us, 1) * 1'000'000);
  }

 private:
  bool active_;
  const char* name_;
  std::int64_t start_us_;
};

/// Key hash used for shuffles; mixes std::hash output so sequential integer
/// keys spread across partitions.
template <typename K>
std::size_t shuffle_hash(const K& key) {
  std::uint64_t x = static_cast<std::uint64_t>(std::hash<K>{}(key));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};

}  // namespace detail

template <typename T>
class Dataset {
 public:
  using value_type = T;

  Dataset(Context& ctx, std::vector<std::vector<T>> partitions)
      : ctx_{&ctx}, partitions_{std::move(partitions)} {
    if (partitions_.empty())
      throw std::invalid_argument{"Dataset: need at least one partition"};
  }

  /// Split `values` round-robin into the context's partition count.
  static Dataset from_vector(Context& ctx, std::vector<T> values) {
    const std::size_t p = ctx.partitions();
    std::vector<std::vector<T>> parts(p);
    for (auto& part : parts) part.reserve(values.size() / p + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % p].push_back(std::move(values[i]));
    }
    return Dataset{ctx, std::move(parts)};
  }

  std::size_t partition_count() const noexcept { return partitions_.size(); }

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  /// --- Narrow (partition-local, parallel) operators ---

  template <typename F, typename R = std::invoke_result_t<F, const T&>>
  Dataset<R> map(F fn) const {
    std::vector<std::vector<R>> out(partitions_.size());
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      out[i].reserve(partitions_[i].size());
      for (const auto& v : partitions_[i]) out[i].push_back(fn(v));
    });
    return Dataset<R>{*ctx_, std::move(out)};
  }

  template <typename Pred>
  Dataset filter(Pred pred) const {
    std::vector<std::vector<T>> out(partitions_.size());
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      for (const auto& v : partitions_[i]) {
        if (pred(v)) out[i].push_back(v);
      }
    });
    return Dataset{*ctx_, std::move(out)};
  }

  /// fn returns a container of R for each input element.
  template <typename F,
            typename C = std::invoke_result_t<F, const T&>,
            typename R = typename C::value_type>
  Dataset<R> flat_map(F fn) const {
    std::vector<std::vector<R>> out(partitions_.size());
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      for (const auto& v : partitions_[i]) {
        for (auto& r : fn(v)) out[i].push_back(std::move(r));
      }
    });
    return Dataset<R>{*ctx_, std::move(out)};
  }

  /// Attach a key: produces a pair dataset for the wide operators below.
  template <typename F, typename K = std::invoke_result_t<F, const T&>>
  Dataset<std::pair<K, T>> key_by(F fn) const {
    return map([fn](const T& v) { return std::make_pair(fn(v), v); });
  }

  /// --- Actions ---

  std::vector<T> collect() const {
    std::vector<T> out;
    out.reserve(size());
    for (const auto& p : partitions_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  std::size_t count() const noexcept { return size(); }

  /// Parallel fold: fn(Acc, const T&) -> Acc per partition, then
  /// merge(Acc, Acc) -> Acc across partitions (associative).
  template <typename Acc, typename F, typename M>
  Acc fold(Acc init, F fn, M merge) const {
    std::vector<Acc> partials(partitions_.size(), init);
    ctx_->pool().parallel_for(partitions_.size(), [&](std::size_t i) {
      for (const auto& v : partitions_[i]) {
        partials[i] = fn(std::move(partials[i]), v);
      }
    });
    Acc acc = std::move(init);
    for (auto& p : partials) acc = merge(std::move(acc), std::move(p));
    return acc;
  }

  const std::vector<T>& partition(std::size_t i) const {
    return partitions_.at(i);
  }

  Context& context() const noexcept { return *ctx_; }

 private:
  Context* ctx_;
  std::vector<std::vector<T>> partitions_;
};

/// --- Wide (shuffle) operators on pair datasets ---

/// Hash-partition each input partition's pairs into P buckets by key.
/// Returns buckets[input][target]. The building block of every shuffle.
template <typename K, typename V>
std::vector<std::vector<std::vector<std::pair<K, V>>>> shuffle_buckets(
    const Dataset<std::pair<K, V>>& in) {
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();
  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(
      p, std::vector<std::vector<std::pair<K, V>>>(p));
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    for (const auto& kv : in.partition(i)) {
      buckets[i][detail::shuffle_hash(kv.first) % p].push_back(kv);
    }
    ctx.note_shuffled_rows(in.partition(i).size());
    ctx.note_shuffled_bytes(in.partition(i).size() * sizeof(std::pair<K, V>));
  });
  return buckets;
}

/// Combine values per key with `combine(V, V) -> V`, with map-side partial
/// aggregation (the classic MapReduce combiner) before the shuffle.
template <typename K, typename V, typename F>
Dataset<std::pair<K, V>> reduce_by_key(const Dataset<std::pair<K, V>>& in,
                                       F combine) {
  const detail::StageSpan span{"reduce_by_key"};
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();

  // Map-side combine.
  std::vector<std::unordered_map<K, V>> local(p);
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    auto& m = local[i];
    m.reserve(in.partition(i).size());
    for (const auto& [k, v] : in.partition(i)) {
      auto [it, inserted] = m.try_emplace(k, v);
      if (!inserted) it->second = combine(it->second, v);
    }
  });

  // Shuffle combined pairs.
  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(
      p, std::vector<std::vector<std::pair<K, V>>>(p));
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    for (auto& kv : local[i]) {
      buckets[i][detail::shuffle_hash(kv.first) % p].emplace_back(
          kv.first, std::move(kv.second));
    }
    ctx.note_shuffled_rows(local[i].size());
    ctx.note_shuffled_bytes(local[i].size() * sizeof(std::pair<K, V>));
  });

  // Reduce side.
  std::vector<std::vector<std::pair<K, V>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    std::unordered_map<K, V> m;
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, v] : buckets[i][t]) {
        auto [it, inserted] = m.try_emplace(k, std::move(v));
        if (!inserted) it->second = combine(it->second, v);
      }
    }
    out[t].reserve(m.size());
    for (auto& kv : m) out[t].emplace_back(kv.first, std::move(kv.second));
  });
  return Dataset<std::pair<K, V>>{ctx, std::move(out)};
}

/// Group all values per key.
template <typename K, typename V>
Dataset<std::pair<K, std::vector<V>>> group_by_key(
    const Dataset<std::pair<K, V>>& in) {
  const detail::StageSpan span{"group_by_key"};
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();
  auto buckets = shuffle_buckets(in);
  std::vector<std::vector<std::pair<K, std::vector<V>>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    std::unordered_map<K, std::vector<V>> m;
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, v] : buckets[i][t]) m[k].push_back(std::move(v));
    }
    out[t].reserve(m.size());
    for (auto& kv : m) out[t].emplace_back(kv.first, std::move(kv.second));
  });
  return Dataset<std::pair<K, std::vector<V>>>{ctx, std::move(out)};
}

/// Inner hash join of two pair datasets on their keys.
template <typename K, typename A, typename B>
Dataset<std::pair<K, std::pair<A, B>>> join(const Dataset<std::pair<K, A>>& lhs,
                                            const Dataset<std::pair<K, B>>& rhs) {
  const detail::StageSpan span{"join"};
  Context& ctx = lhs.context();
  if (lhs.partition_count() != rhs.partition_count())
    throw std::invalid_argument{"join: partition counts differ"};
  const std::size_t p = lhs.partition_count();
  auto lbuckets = shuffle_buckets(lhs);
  auto rbuckets = shuffle_buckets(rhs);

  std::vector<std::vector<std::pair<K, std::pair<A, B>>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    std::unordered_multimap<K, A> build;
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, a] : lbuckets[i][t]) build.emplace(k, std::move(a));
    }
    for (std::size_t i = 0; i < p; ++i) {
      for (auto& [k, b] : rbuckets[i][t]) {
        auto [lo, hi] = build.equal_range(k);
        for (auto it = lo; it != hi; ++it) {
          out[t].emplace_back(k, std::make_pair(it->second, b));
        }
      }
    }
  });
  return Dataset<std::pair<K, std::pair<A, B>>>{ctx, std::move(out)};
}

/// Globally sort by key: range-partition on sampled splitters, then sort
/// each partition locally. collect() on the result is globally ordered.
template <typename K, typename V>
Dataset<std::pair<K, V>> sort_by_key(const Dataset<std::pair<K, V>>& in) {
  const detail::StageSpan span{"sort_by_key"};
  Context& ctx = in.context();
  const std::size_t p = in.partition_count();

  // Sample splitters: take up to 32 samples per partition.
  std::vector<K> samples;
  for (std::size_t i = 0; i < p; ++i) {
    const auto& part = in.partition(i);
    const std::size_t step = std::max<std::size_t>(1, part.size() / 32);
    for (std::size_t j = 0; j < part.size(); j += step) {
      samples.push_back(part[j].first);
    }
  }
  std::sort(samples.begin(), samples.end());
  std::vector<K> splitters;  // p-1 range boundaries
  for (std::size_t s = 1; s < p; ++s) {
    if (samples.empty()) break;
    splitters.push_back(samples[s * samples.size() / p]);
  }

  const auto target_of = [&splitters](const K& key) {
    return static_cast<std::size_t>(
        std::upper_bound(splitters.begin(), splitters.end(), key) -
        splitters.begin());
  };

  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(
      p, std::vector<std::vector<std::pair<K, V>>>(p));
  ctx.pool().parallel_for(p, [&](std::size_t i) {
    for (const auto& kv : in.partition(i)) {
      buckets[i][target_of(kv.first)].push_back(kv);
    }
    ctx.note_shuffled_rows(in.partition(i).size());
    ctx.note_shuffled_bytes(in.partition(i).size() * sizeof(std::pair<K, V>));
  });

  std::vector<std::vector<std::pair<K, V>>> out(p);
  ctx.pool().parallel_for(p, [&](std::size_t t) {
    for (std::size_t i = 0; i < p; ++i) {
      out[t].insert(out[t].end(),
                    std::make_move_iterator(buckets[i][t].begin()),
                    std::make_move_iterator(buckets[i][t].end()));
    }
    std::sort(out[t].begin(), out[t].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  });
  return Dataset<std::pair<K, V>>{ctx, std::move(out)};
}

}  // namespace rb::dataflow
