#pragma once
// Physical operators of the vectorized push-based query engine.
//
// Execution model: a Source fills ColumnBatches and the Plan driver pushes
// each batch through a chain of Operators (push() → do_push()). Streaming
// operators (Filter, HashJoin probe, Limit, Project) forward work batch by
// batch; blocking operators (GroupAggregate, OrderBy, TopK) buffer compact
// state and emit their output from finish(). finish() propagates down the
// chain, so every operator flushes before its consumer is finalized.
//
// Instrumentation: every operator keeps plain local OperatorStats (always
// on — a handful of adds per *batch*, not per row); they are the only copy
// of its row counts, read through Plan's ExecStats. The one registry metric
// is accel.simd_rows{kernel}, added per batch behind the obs::enabled()
// guard by the operators that run a SIMD kernel.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/hash_table.hpp"
#include "obs/metrics.hpp"
#include "query/exec/batch.hpp"
#include "query/table.hpp"

namespace rb::query::exec {

/// Pull side of the pipeline: fills batches until exhausted.
class Source {
 public:
  virtual ~Source() = default;
  virtual const char* name() const noexcept = 0;
  virtual const SchemaPtr& schema() const noexcept = 0;
  /// Fill `out` (cleared by the caller) with up to out.capacity() rows.
  /// Returns false — leaving `out` empty — when exhausted.
  virtual bool next(ColumnBatch& out) = 0;
  std::uint64_t rows_emitted = 0;
};

/// Batches over an in-memory Table (non-owning; the Plan keeps it alive).
class TableSource : public Source {
 public:
  explicit TableSource(const Table* table);
  const char* name() const noexcept override { return "scan"; }
  const SchemaPtr& schema() const noexcept override { return schema_; }
  bool next(ColumnBatch& out) override;

 private:
  const Table* table_;
  SchemaPtr schema_;
  std::vector<const std::vector<std::int64_t>*> int_cols_;
  std::vector<const std::vector<std::string>*> str_cols_;
  std::size_t pos_ = 0;
};

struct OperatorStats {
  std::uint64_t batches_in = 0;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t build_rows = 0;  // hash-join build-side rows
};

class Operator {
 public:
  explicit Operator(const char* name) : name_{name} {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const char* name() const noexcept { return name_; }
  void set_output(Operator* out) noexcept { out_ = out; }

  /// Called once, source-to-sink order, before any push.
  virtual void open() {}

  void push(ColumnBatch& batch) {
    const std::uint64_t in = batch.active_count();
    ++stats_.batches_in;
    stats_.rows_in += in;
    if (timed_) {
      const auto t0 = std::chrono::steady_clock::now();
      do_push(batch);
      busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } else {
      do_push(batch);
    }
  }

  void finish() {
    if (timed_) {
      const auto t0 = std::chrono::steady_clock::now();
      do_finish();
      busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } else {
      do_finish();
    }
    if (out_ != nullptr) out_->finish();
  }

  /// True once this operator can absorb no further input (Limit quota hit).
  virtual bool saturated() const noexcept { return false; }

  const OperatorStats& stats() const noexcept { return stats_; }
  const SchemaPtr& output_schema() const noexcept { return out_schema_; }

  /// Per-operator busy time accounting; off unless the plan runs traced.
  void set_timed(bool on) noexcept { timed_ = on; }
  std::int64_t busy_ns() const noexcept { return busy_ns_; }

 protected:
  virtual void do_push(ColumnBatch& batch) = 0;
  virtual void do_finish() {}

  /// Forward `batch` downstream, counting rows out. Empty batches are
  /// swallowed (no information, no push).
  void emit(ColumnBatch& batch) {
    const std::uint64_t n = batch.active_count();
    stats_.rows_out += n;
    if (out_ != nullptr && n > 0) out_->push(batch);
  }

  Operator* out_ = nullptr;
  SchemaPtr out_schema_;
  OperatorStats stats_;

 private:
  const char* name_;
  bool timed_ = false;
  std::int64_t busy_ns_ = 0;
};

/// Selection-vector filter on an int column; no data movement.
class FilterInt : public Operator {
 public:
  FilterInt(const SchemaPtr& in, std::string column,
            std::function<bool(std::int64_t)> pred);
  /// Range form (lo <= v < hi). Dense batches run the dispatched SIMD
  /// selection kernel; batches that already carry a selection vector fall
  /// back to `pred`, which computes the same predicate.
  FilterInt(const SchemaPtr& in, std::string column, std::int64_t lo,
            std::int64_t hi, std::function<bool(std::int64_t)> pred);

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::size_t col_;
  std::function<bool(std::int64_t)> pred_;
  bool is_range_ = false;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::vector<std::uint32_t> sel_scratch_;
  obs::Counter* c_simd_rows_ = nullptr;
};

/// Selection-vector filter on a string column.
class FilterString : public Operator {
 public:
  FilterString(const SchemaPtr& in, std::string column,
               std::function<bool(const std::string&)> pred);

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::size_t col_;
  std::function<bool(const std::string&)> pred_;
  std::vector<std::uint32_t> sel_scratch_;
};

/// Streaming-probe inner equi-join on int keys. The right table is the
/// build side: open() hashes it once into an accel::HashTable64 whose value
/// is a head index into forward-linked match chains (right rows of one key,
/// in row order). Each probed left row emits its matches in canonical
/// left-major order — byte-identical to the reference interpreter.
class HashJoin : public Operator {
 public:
  HashJoin(const SchemaPtr& left, const Table* right, std::string left_key,
           std::string right_key, std::size_t batch_capacity);

  void open() override;

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  void flush_pairs(const ColumnBatch& batch);

  const Table* right_;
  std::string right_key_;
  std::size_t left_key_col_;
  std::size_t left_width_;
  std::size_t batch_capacity_;

  accel::HashTable64 table_{16};
  struct Chain {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };
  std::vector<Chain> chains_;
  std::vector<std::uint32_t> entry_row_;
  std::vector<std::int32_t> entry_next_;

  std::vector<const std::vector<std::int64_t>*> right_int_cols_;
  std::vector<const std::vector<std::string>*> right_str_cols_;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::unique_ptr<ColumnBatch> out_batch_;

  // Scratch for the batched (vertical, SIMD-gather) probe: active row
  // indices, their keys, and find_batch results for one input batch.
  std::vector<std::uint32_t> probe_rows_;
  std::vector<std::uint64_t> probe_keys_;
  std::vector<std::uint64_t> probe_vals_;
  std::vector<std::uint8_t> probe_found_;
  obs::Counter* c_simd_rows_ = nullptr;
};

/// Blocking hash aggregation: SUM / COUNT / MIN / MAX of an int column per
/// int or string key. Group discovery uses accel::HashTable64 (key code →
/// dense accumulator slot); finish() emits groups sorted by unsigned key
/// code (a string key's code is its first-appearance index), the order
/// GroupByStage defines.
class GroupAggregate : public Operator {
 public:
  GroupAggregate(const SchemaPtr& in, std::string key, Aggregate agg,
                 std::string value, std::string result,
                 std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  struct Acc {
    std::uint64_t sum = 0;  // wraparound-safe sum
    std::int64_t extreme = 0;
    std::uint64_t n = 0;
  };
  std::uint32_t slot_for(std::uint64_t code);
  void accumulate(std::uint32_t slot, std::int64_t v);

  Aggregate agg_;
  std::size_t key_col_;
  std::size_t value_col_;
  bool string_key_;
  std::size_t batch_capacity_;

  accel::HashTable64 table_{16};
  std::vector<std::uint64_t> codes_;
  std::vector<Acc> accs_;
  std::unordered_map<std::string, std::uint64_t> dict_codes_;
  std::vector<std::string> dictionary_;

  // Scratch for the batched slot lookup on the int-key path.
  std::vector<std::uint32_t> probe_rows_;
  std::vector<std::uint64_t> probe_keys_;
  std::vector<std::uint64_t> probe_vals_;
  std::vector<std::uint8_t> probe_found_;
  obs::Counter* c_simd_rows_ = nullptr;

  std::unique_ptr<ColumnBatch> out_batch_;
};

/// Blocking stable sort by an int column; buffers all active rows.
class OrderBy : public Operator {
 public:
  OrderBy(const SchemaPtr& in, std::string column, bool descending,
          std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  std::size_t sort_col_;
  bool descending_;
  std::size_t batch_capacity_;
  // Buffered rows, column-wise.
  std::vector<std::vector<std::int64_t>> int_store_;
  std::vector<std::vector<std::string>> str_store_;
  std::vector<std::size_t> col_slot_;  // schema col -> store index
  std::size_t buffered_ = 0;
  std::unique_ptr<ColumnBatch> out_batch_;
};

/// Fused OrderBy+Limit: bounded top-k selection, O(n log k) time and O(k)
/// space, with tie-breaks on arrival order so the result is byte-identical
/// to stable sort + limit.
class TopK : public Operator {
 public:
  TopK(const SchemaPtr& in, std::string column, bool descending,
       std::size_t k, std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;
  void do_finish() override;

 private:
  struct Entry {
    std::int64_t v = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  /// True when `a` must sort before `b` in the final output.
  bool better(const Entry& a, const Entry& b) const noexcept {
    if (a.v != b.v) return descending_ ? a.v > b.v : a.v < b.v;
    return a.seq < b.seq;
  }
  void store_row(const ColumnBatch& batch, std::uint32_t row,
                 std::uint32_t slot);

  std::size_t sort_col_;
  bool descending_;
  std::size_t k_;
  std::size_t batch_capacity_;
  std::uint64_t seq_ = 0;
  std::vector<Entry> heap_;  // top = worst kept entry
  std::vector<std::vector<std::int64_t>> int_store_;   // k slots per column
  std::vector<std::vector<std::string>> str_store_;
  std::vector<std::size_t> col_slot_;
  std::vector<std::uint32_t> sift_scratch_;  // SIMD pre-filter survivors
  obs::Counter* c_simd_rows_ = nullptr;
  std::unique_ptr<ColumnBatch> out_batch_;
};

/// Pass through the first n active rows, then saturate (the plan driver
/// stops a fully-streaming scan early once the quota is filled).
class Limit : public Operator {
 public:
  Limit(const SchemaPtr& in, std::size_t n);
  bool saturated() const noexcept override { return remaining_ == 0; }

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::size_t remaining_;
};

/// Keep only the named columns, in order (copies active rows densely).
class Project : public Operator {
 public:
  Project(const SchemaPtr& in, const std::vector<std::string>& columns,
          std::size_t batch_capacity);

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::vector<std::size_t> src_cols_;
  std::size_t batch_capacity_;
  std::unique_ptr<ColumnBatch> out_batch_;
};

/// Terminal operator: materializes every active row into a Table.
class CollectSink : public Operator {
 public:
  explicit CollectSink(const SchemaPtr& in);

  /// The materialized result (valid after finish()).
  Table take();

 protected:
  void do_push(ColumnBatch& batch) override;

 private:
  std::vector<std::vector<std::int64_t>> int_cols_;
  std::vector<std::vector<std::string>> str_cols_;
  std::vector<std::size_t> col_slot_;
};

}  // namespace rb::query::exec
