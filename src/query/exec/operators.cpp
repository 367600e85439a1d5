#include "query/exec/operators.hpp"

#include <algorithm>
#include <stdexcept>

#include "accel/simd/simd.hpp"

namespace rb::query::exec {

namespace {

/// Sentinel for "no further entry" in the join match chains.
constexpr std::int32_t kChainEnd = -1;

/// Per-kernel SIMD row counter (obs::enabled() checked by callers).
obs::Counter* simd_rows_counter(const char* kernel) {
  return &obs::Registry::global().counter("accel.simd_rows",
                                          {{"kernel", kernel}});
}

}  // namespace

/// --- TableSource ---------------------------------------------------------

TableSource::TableSource(const Table* table)
    : table_{table},
      schema_{std::make_shared<const BatchSchema>(BatchSchema::of(*table))} {
  for (const auto& c : schema_->columns()) {
    if (c.type == ColumnType::kInt) {
      int_cols_.push_back(&table_->ints(c.name));
      str_cols_.push_back(nullptr);
    } else {
      int_cols_.push_back(nullptr);
      str_cols_.push_back(&table_->strings(c.name));
    }
  }
}

bool TableSource::next(ColumnBatch& out) {
  const std::size_t total = table_->row_count();
  if (pos_ >= total) return false;
  const std::size_t n = std::min(out.capacity(), total - pos_);
  for (std::size_t c = 0; c < schema_->column_count(); ++c) {
    if (int_cols_[c] != nullptr) {
      auto& dst = out.ints(c);
      dst.assign(int_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_),
                 int_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    } else {
      auto& dst = out.strings(c);
      dst.assign(str_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_),
                 str_cols_[c]->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    }
  }
  out.set_row_count(n);
  pos_ += n;
  rows_emitted += n;
  return true;
}

/// --- Filters -------------------------------------------------------------

FilterInt::FilterInt(const SchemaPtr& in, std::string column,
                     std::function<bool(std::int64_t)> pred)
    : Operator{"filter"},
      col_{in->index_of(column, ColumnType::kInt)},
      pred_{std::move(pred)} {
  out_schema_ = in;
}

FilterInt::FilterInt(const SchemaPtr& in, std::string column, std::int64_t lo,
                     std::int64_t hi, std::function<bool(std::int64_t)> pred)
    : FilterInt{in, std::move(column), std::move(pred)} {
  is_range_ = true;
  lo_ = lo;
  hi_ = hi;
}

void FilterInt::do_push(ColumnBatch& batch) {
  const auto& values = batch.ints(col_);
  if (is_range_ && !batch.has_selection()) {
    // Dense batch with a known range: one call into the dispatched SIMD
    // selection kernel. Produces exactly the ascending index list the
    // scalar predicate loop below would.
    const std::size_t n = batch.row_count();
    sel_scratch_.resize(n);
    const std::size_t m = accel::simd::kernels().select_between(
        values.data(), n, lo_, hi_, sel_scratch_.data());
    sel_scratch_.resize(m);
    if (obs::enabled()) {
      if (c_simd_rows_ == nullptr) {
        c_simd_rows_ = simd_rows_counter("select_between");
      }
      c_simd_rows_->add(n);
    }
  } else {
    sel_scratch_.clear();
    batch.for_each_active([&](std::uint32_t r) {
      if (pred_(values[r])) sel_scratch_.push_back(r);
    });
  }
  batch.set_selection(std::move(sel_scratch_));
  sel_scratch_ = {};
  emit(batch);
}

FilterString::FilterString(const SchemaPtr& in, std::string column,
                           std::function<bool(const std::string&)> pred)
    : Operator{"filter"},
      col_{in->index_of(column, ColumnType::kString)},
      pred_{std::move(pred)} {
  out_schema_ = in;
}

void FilterString::do_push(ColumnBatch& batch) {
  const auto& values = batch.strings(col_);
  sel_scratch_.clear();
  batch.for_each_active([&](std::uint32_t r) {
    if (pred_(values[r])) sel_scratch_.push_back(r);
  });
  batch.set_selection(std::move(sel_scratch_));
  sel_scratch_ = {};
  emit(batch);
}

/// --- HashJoin ------------------------------------------------------------

HashJoin::HashJoin(const SchemaPtr& left, const Table* right,
                   std::string left_key, std::string right_key,
                   std::size_t batch_capacity)
    : Operator{"hash_join"},
      right_{right},
      right_key_{std::move(right_key)},
      left_key_col_{left->index_of(left_key, ColumnType::kInt)},
      left_width_{left->column_count()},
      batch_capacity_{batch_capacity} {
  // Validates the right key exists and is int.
  (void)right_->ints(right_key_);
  auto schema = std::make_shared<BatchSchema>(*left);
  for (const auto& name : right_->column_names()) {
    const std::string out_name = schema->has(name) ? name + "_r" : name;
    schema->add(out_name, right_->column_type(name));
    if (right_->column_type(name) == ColumnType::kInt) {
      right_int_cols_.push_back(&right_->ints(name));
      right_str_cols_.push_back(nullptr);
    } else {
      right_int_cols_.push_back(nullptr);
      right_str_cols_.push_back(&right_->strings(name));
    }
  }
  out_schema_ = std::move(schema);
}

void HashJoin::open() {
  const auto& keys = right_->ints(right_key_);
  const std::size_t n = keys.size();
  table_ = accel::HashTable64{n};
  chains_.clear();
  entry_row_.resize(n);
  entry_next_.assign(n, kChainEnd);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    const auto code = static_cast<std::uint64_t>(keys[i]);
    entry_row_[i] = row;
    const std::uint64_t* found = table_.find(code);
    if (found == nullptr) {
      const auto chain = static_cast<std::uint64_t>(chains_.size());
      chains_.push_back(Chain{row, row});
      table_.upsert(code, chain,
                    [](std::uint64_t old, std::uint64_t) { return old; });
    } else {
      auto& chain = chains_[static_cast<std::size_t>(*found)];
      entry_next_[chain.last] = static_cast<std::int32_t>(row);
      chain.last = row;
    }
  }
  stats_.build_rows += n;
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  pairs_.reserve(batch_capacity_);
}

void HashJoin::flush_pairs(const ColumnBatch& batch) {
  if (pairs_.empty()) return;
  for (std::size_t c = 0; c < left_width_; ++c) {
    if (out_schema_->at(c).type == ColumnType::kInt) {
      const auto& src = batch.ints(c);
      auto& dst = out_batch_->ints(c);
      for (const auto& p : pairs_) dst.push_back(src[p.first]);
    } else {
      const auto& src = batch.strings(c);
      auto& dst = out_batch_->strings(c);
      for (const auto& p : pairs_) dst.push_back(src[p.first]);
    }
  }
  for (std::size_t c = 0; c < right_int_cols_.size(); ++c) {
    if (right_int_cols_[c] != nullptr) {
      const auto& src = *right_int_cols_[c];
      auto& dst = out_batch_->ints(left_width_ + c);
      for (const auto& p : pairs_) dst.push_back(src[p.second]);
    } else {
      const auto& src = *right_str_cols_[c];
      auto& dst = out_batch_->strings(left_width_ + c);
      for (const auto& p : pairs_) dst.push_back(src[p.second]);
    }
  }
  out_batch_->set_row_count(pairs_.size());
  pairs_.clear();
  emit(*out_batch_);
  out_batch_->clear();
}

void HashJoin::do_push(ColumnBatch& batch) {
  const auto& keys = batch.ints(left_key_col_);
  // Vertical probe: gather the active keys, look them all up in one
  // find_batch call (gather-based on wide ISAs), then walk match chains in
  // row order. Emission order and mid-chain flush points are identical to
  // the per-row find() loop this replaces.
  probe_rows_.clear();
  probe_keys_.clear();
  batch.for_each_active([&](std::uint32_t l) {
    probe_rows_.push_back(l);
    probe_keys_.push_back(static_cast<std::uint64_t>(keys[l]));
  });
  const std::size_t n = probe_keys_.size();
  probe_vals_.resize(n);
  probe_found_.resize(n);
  table_.find_batch(probe_keys_.data(), n, probe_vals_.data(),
                    probe_found_.data());
  if (obs::enabled()) {
    if (c_simd_rows_ == nullptr) c_simd_rows_ = simd_rows_counter("hash_probe");
    c_simd_rows_->add(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (probe_found_[i] == 0) continue;
    const std::uint32_t l = probe_rows_[i];
    std::int32_t e = static_cast<std::int32_t>(
        chains_[static_cast<std::size_t>(probe_vals_[i])].first);
    while (e != kChainEnd) {
      pairs_.emplace_back(l, entry_row_[static_cast<std::size_t>(e)]);
      if (pairs_.size() >= batch_capacity_) flush_pairs(batch);
      e = entry_next_[static_cast<std::size_t>(e)];
    }
  }
  flush_pairs(batch);
}

void HashJoin::do_finish() {
  // Probe emits eagerly; nothing is buffered across batches.
}

/// --- GroupAggregate ------------------------------------------------------

GroupAggregate::GroupAggregate(const SchemaPtr& in, std::string key,
                               Aggregate agg, std::string value,
                               std::string result,
                               std::size_t batch_capacity)
    : Operator{"group_aggregate"},
      agg_{agg},
      key_col_{in->index_of(key)},
      value_col_{in->index_of(value, ColumnType::kInt)},
      string_key_{in->at(in->index_of(key)).type == ColumnType::kString},
      batch_capacity_{batch_capacity} {
  auto schema = std::make_shared<BatchSchema>();
  schema->add(key, string_key_ ? ColumnType::kString : ColumnType::kInt);
  schema->add(std::move(result), ColumnType::kInt);
  out_schema_ = std::move(schema);
}

std::uint32_t GroupAggregate::slot_for(std::uint64_t code) {
  const std::uint64_t* found = table_.find(code);
  if (found != nullptr) return static_cast<std::uint32_t>(*found);
  const auto slot = static_cast<std::uint32_t>(accs_.size());
  accs_.push_back(Acc{});
  codes_.push_back(code);
  table_.upsert(code, slot,
                [](std::uint64_t old, std::uint64_t) { return old; });
  return slot;
}

void GroupAggregate::accumulate(std::uint32_t slot, std::int64_t v) {
  Acc& acc = accs_[slot];
  switch (agg_) {
    case Aggregate::kSum:
      acc.sum += static_cast<std::uint64_t>(v);
      break;
    case Aggregate::kCount:
      break;  // n counts below
    case Aggregate::kMin:
      if (acc.n == 0 || v < acc.extreme) acc.extreme = v;
      break;
    case Aggregate::kMax:
      if (acc.n == 0 || v > acc.extreme) acc.extreme = v;
      break;
  }
  ++acc.n;
}

void GroupAggregate::do_push(ColumnBatch& batch) {
  const auto& values = batch.ints(value_col_);
  if (string_key_) {
    const auto& keys = batch.strings(key_col_);
    batch.for_each_active([&](std::uint32_t r) {
      const auto [it, inserted] =
          dict_codes_.try_emplace(keys[r], dictionary_.size());
      if (inserted) dictionary_.push_back(keys[r]);
      accumulate(slot_for(it->second), values[r]);
    });
  } else {
    const auto& keys = batch.ints(key_col_);
    // Batched slot lookup: probe every active key in one SIMD find_batch
    // call, then accumulate in row order. A miss means a new group — or an
    // intra-batch duplicate of one — and falls back to slot_for, which
    // inserts on first touch and finds the slot on the second, so slot
    // assignment order matches the per-row loop exactly.
    probe_rows_.clear();
    probe_keys_.clear();
    batch.for_each_active([&](std::uint32_t r) {
      probe_rows_.push_back(r);
      probe_keys_.push_back(static_cast<std::uint64_t>(keys[r]));
    });
    const std::size_t n = probe_keys_.size();
    probe_vals_.resize(n);
    probe_found_.resize(n);
    table_.find_batch(probe_keys_.data(), n, probe_vals_.data(),
                      probe_found_.data());
    if (obs::enabled()) {
      if (c_simd_rows_ == nullptr) {
        c_simd_rows_ = simd_rows_counter("group_probe");
      }
      c_simd_rows_->add(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t slot =
          probe_found_[i] != 0 ? static_cast<std::uint32_t>(probe_vals_[i])
                               : slot_for(probe_keys_[i]);
      accumulate(slot, values[probe_rows_[i]]);
    }
  }
}

void GroupAggregate::do_finish() {
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  // Emit groups sorted by unsigned key code, the order GroupByStage
  // defines.
  std::vector<std::uint32_t> order(accs_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return codes_[a] < codes_[b];
            });
  std::size_t filled = 0;
  for (const std::uint32_t slot : order) {
    if (string_key_) {
      out_batch_->strings(0).push_back(
          dictionary_[static_cast<std::size_t>(codes_[slot])]);
    } else {
      out_batch_->ints(0).push_back(
          static_cast<std::int64_t>(codes_[slot]));
    }
    const Acc& acc = accs_[slot];
    std::int64_t result = 0;
    switch (agg_) {
      case Aggregate::kSum:
        result = static_cast<std::int64_t>(acc.sum);
        break;
      case Aggregate::kCount:
        result = static_cast<std::int64_t>(acc.n);
        break;
      case Aggregate::kMin:
      case Aggregate::kMax:
        result = acc.extreme;
        break;
    }
    out_batch_->ints(1).push_back(result);
    if (++filled == batch_capacity_) {
      out_batch_->set_row_count(filled);
      emit(*out_batch_);
      out_batch_->clear();
      filled = 0;
    }
  }
  if (filled > 0) {
    out_batch_->set_row_count(filled);
    emit(*out_batch_);
    out_batch_->clear();
  }
}

/// --- OrderBy -------------------------------------------------------------

OrderBy::OrderBy(const SchemaPtr& in, std::string column, bool descending,
                 std::size_t batch_capacity)
    : Operator{"order_by"},
      sort_col_{in->index_of(column, ColumnType::kInt)},
      descending_{descending},
      batch_capacity_{batch_capacity} {
  out_schema_ = in;
  col_slot_.resize(in->column_count());
  for (std::size_t c = 0; c < in->column_count(); ++c) {
    if (in->at(c).type == ColumnType::kInt) {
      col_slot_[c] = int_store_.size();
      int_store_.emplace_back();
    } else {
      col_slot_[c] = str_store_.size();
      str_store_.emplace_back();
    }
  }
}

void OrderBy::do_push(ColumnBatch& batch) {
  const auto& schema = *out_schema_;
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      const auto& src = batch.ints(c);
      auto& dst = int_store_[col_slot_[c]];
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    } else {
      const auto& src = batch.strings(c);
      auto& dst = str_store_[col_slot_[c]];
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    }
  }
  buffered_ += batch.active_count();
}

void OrderBy::do_finish() {
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  const auto& keys = int_store_[col_slot_[sort_col_]];
  std::vector<std::uint32_t> order(buffered_);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&keys, this](std::uint32_t a, std::uint32_t b) {
                     return descending_ ? keys[a] > keys[b]
                                        : keys[a] < keys[b];
                   });
  const auto& schema = *out_schema_;
  for (std::size_t start = 0; start < order.size();
       start += batch_capacity_) {
    const std::size_t n =
        std::min(batch_capacity_, order.size() - start);
    for (std::size_t c = 0; c < schema.column_count(); ++c) {
      if (schema.at(c).type == ColumnType::kInt) {
        const auto& src = int_store_[col_slot_[c]];
        auto& dst = out_batch_->ints(c);
        for (std::size_t i = 0; i < n; ++i)
          dst.push_back(src[order[start + i]]);
      } else {
        const auto& src = str_store_[col_slot_[c]];
        auto& dst = out_batch_->strings(c);
        for (std::size_t i = 0; i < n; ++i)
          dst.push_back(src[order[start + i]]);
      }
    }
    out_batch_->set_row_count(n);
    emit(*out_batch_);
    out_batch_->clear();
  }
}

/// --- TopK ----------------------------------------------------------------

TopK::TopK(const SchemaPtr& in, std::string column, bool descending,
           std::size_t k, std::size_t batch_capacity)
    : Operator{"topk"},
      sort_col_{in->index_of(column, ColumnType::kInt)},
      descending_{descending},
      k_{k},
      batch_capacity_{batch_capacity} {
  out_schema_ = in;
  col_slot_.resize(in->column_count());
  for (std::size_t c = 0; c < in->column_count(); ++c) {
    if (in->at(c).type == ColumnType::kInt) {
      col_slot_[c] = int_store_.size();
      int_store_.emplace_back(std::vector<std::int64_t>(k_));
    } else {
      col_slot_[c] = str_store_.size();
      str_store_.emplace_back(std::vector<std::string>(k_));
    }
  }
  heap_.reserve(k_);
}

void TopK::store_row(const ColumnBatch& batch, std::uint32_t row,
                     std::uint32_t slot) {
  const auto& schema = *out_schema_;
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      int_store_[col_slot_[c]][slot] = batch.ints(c)[row];
    } else {
      str_store_[col_slot_[c]][slot] = batch.strings(c)[row];
    }
  }
}

void TopK::do_push(ColumnBatch& batch) {
  if (k_ == 0) return;
  const auto& keys = batch.ints(sort_col_);
  // Heap ordered so the *worst kept* entry is on top (front): std::heap
  // primitives build a max-heap under `better`, and the maximum under
  // "sorts-first" ordering is the entry that sorts last.
  const auto cmp = [this](const Entry& a, const Entry& b) {
    return better(a, b);
  };
  if (heap_.size() == k_ && !batch.has_selection()) {
    // Fused sift: pre-filter the dense batch with the SIMD strict-compare
    // kernel against the worst kept value. The threshold only ratchets
    // tighter as entries are replaced, so filtering against the *initial*
    // threshold admits a superset of what the scalar loop admits, and each
    // survivor is re-checked against the live heap front. The compare is
    // strict because a tie always loses to the incumbent (the incoming
    // entry's seq is larger). Sequence numbers of filtered-out rows are
    // reconstructed as seq_base + row, valid only for dense batches.
    const std::size_t n = batch.row_count();
    sift_scratch_.resize(n);
    const std::int64_t threshold = heap_.front().v;
    const auto& kn = accel::simd::kernels();
    const std::size_t m =
        descending_
            ? kn.select_greater(keys.data(), n, threshold,
                                sift_scratch_.data())
            : kn.select_less(keys.data(), n, threshold, sift_scratch_.data());
    if (obs::enabled()) {
      if (c_simd_rows_ == nullptr) c_simd_rows_ = simd_rows_counter("topk_sift");
      c_simd_rows_->add(n);
    }
    const std::uint64_t seq_base = seq_;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t r = sift_scratch_[i];
      const Entry e{keys[r], seq_base + r, 0};
      if (better(e, heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), cmp);
        Entry kept = e;
        kept.slot = heap_.back().slot;
        store_row(batch, r, kept.slot);
        heap_.back() = kept;
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    seq_ = seq_base + n;
    return;
  }
  batch.for_each_active([&](std::uint32_t r) {
    const Entry e{keys[r], seq_++, 0};
    if (heap_.size() < k_) {
      Entry kept = e;
      kept.slot = static_cast<std::uint32_t>(heap_.size());
      store_row(batch, r, kept.slot);
      heap_.push_back(kept);
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    } else if (better(e, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      Entry kept = e;
      kept.slot = heap_.back().slot;
      store_row(batch, r, kept.slot);
      heap_.back() = kept;
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
  });
}

void TopK::do_finish() {
  out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  std::vector<Entry> kept = heap_;
  std::sort(kept.begin(), kept.end(),
            [this](const Entry& a, const Entry& b) { return better(a, b); });
  const auto& schema = *out_schema_;
  std::size_t filled = 0;
  for (const Entry& e : kept) {
    for (std::size_t c = 0; c < schema.column_count(); ++c) {
      if (schema.at(c).type == ColumnType::kInt) {
        out_batch_->ints(c).push_back(int_store_[col_slot_[c]][e.slot]);
      } else {
        out_batch_->strings(c).push_back(str_store_[col_slot_[c]][e.slot]);
      }
    }
    if (++filled == batch_capacity_) {
      out_batch_->set_row_count(filled);
      emit(*out_batch_);
      out_batch_->clear();
      filled = 0;
    }
  }
  if (filled > 0) {
    out_batch_->set_row_count(filled);
    emit(*out_batch_);
    out_batch_->clear();
  }
}

/// --- Limit ---------------------------------------------------------------

Limit::Limit(const SchemaPtr& in, std::size_t n)
    : Operator{"limit"}, remaining_{n} {
  out_schema_ = in;
}

void Limit::do_push(ColumnBatch& batch) {
  if (remaining_ == 0) return;
  const std::size_t active = batch.active_count();
  if (active <= remaining_) {
    remaining_ -= active;
    emit(batch);
    return;
  }
  std::vector<std::uint32_t> sel;
  sel.reserve(remaining_);
  batch.for_each_active([&](std::uint32_t r) {
    if (sel.size() < remaining_) sel.push_back(r);
  });
  batch.set_selection(std::move(sel));
  remaining_ = 0;
  emit(batch);
}

/// --- Project -------------------------------------------------------------

Project::Project(const SchemaPtr& in,
                 const std::vector<std::string>& columns,
                 std::size_t batch_capacity)
    : Operator{"project"}, batch_capacity_{batch_capacity} {
  auto schema = std::make_shared<BatchSchema>();
  for (const auto& name : columns) {
    const std::size_t src = in->index_of(name);
    src_cols_.push_back(src);
    schema->add(name, in->at(src).type);
  }
  out_schema_ = std::move(schema);
}

void Project::do_push(ColumnBatch& batch) {
  if (out_batch_ == nullptr) {
    out_batch_ = std::make_unique<ColumnBatch>(out_schema_, batch_capacity_);
  }
  const auto& schema = *out_schema_;
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      const auto& src = batch.ints(src_cols_[c]);
      auto& dst = out_batch_->ints(c);
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    } else {
      const auto& src = batch.strings(src_cols_[c]);
      auto& dst = out_batch_->strings(c);
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    }
  }
  out_batch_->set_row_count(batch.active_count());
  emit(*out_batch_);
  out_batch_->clear();
}

/// --- CollectSink ---------------------------------------------------------

CollectSink::CollectSink(const SchemaPtr& in) : Operator{"collect"} {
  out_schema_ = in;
  col_slot_.resize(in->column_count());
  for (std::size_t c = 0; c < in->column_count(); ++c) {
    if (in->at(c).type == ColumnType::kInt) {
      col_slot_[c] = int_cols_.size();
      int_cols_.emplace_back();
    } else {
      col_slot_[c] = str_cols_.size();
      str_cols_.emplace_back();
    }
  }
}

void CollectSink::do_push(ColumnBatch& batch) {
  const auto& schema = *out_schema_;
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      const auto& src = batch.ints(c);
      auto& dst = int_cols_[col_slot_[c]];
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    } else {
      const auto& src = batch.strings(c);
      auto& dst = str_cols_[col_slot_[c]];
      batch.for_each_active([&](std::uint32_t r) { dst.push_back(src[r]); });
    }
  }
  stats_.rows_out += batch.active_count();
}

Table CollectSink::take() {
  Table out;
  const auto& schema = *out_schema_;
  for (std::size_t c = 0; c < schema.column_count(); ++c) {
    if (schema.at(c).type == ColumnType::kInt) {
      out.add_int_column(schema.at(c).name,
                         std::move(int_cols_[col_slot_[c]]));
    } else {
      out.add_string_column(schema.at(c).name,
                            std::move(str_cols_[col_slot_[c]]));
    }
  }
  return out;
}

}  // namespace rb::query::exec
