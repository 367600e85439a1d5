// lsm_analytics: the durable write path and the analytics read path over
// one LsmStore.
//
// A durable LsmStore on a MemDevice holds kSlots rotating lineitems tables.
// Each round (one op) overwrites one slot with a fixed-size slice through
// store_table (which group-commits its rows), puts the round's commit
// marker and closes with a group-commit sync(), then runs the join ->
// filter_between -> group_by -> top-10 plan of bench_ext_query_engine over
// that slot, joined against in-memory orders. Live data spans several
// memtables, so flush and compaction cycle many times per rep while the
// working set stays bounded.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "accel/simd/simd.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "sim/random.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"

namespace pb {

namespace {

using namespace rb;

constexpr std::size_t kOrders = 5'000;
constexpr std::int64_t kCustomers = 400;
constexpr std::size_t kRows = 1'024;   // lineitems per slice
constexpr std::size_t kSlices = 7;     // distinct slices (coprime to kSlots)
constexpr std::size_t kSlots = 4;      // rotating stored tables
constexpr int kRounds = 120;
constexpr std::size_t kMemtableBytes = 32 << 10;
constexpr std::int64_t kAmountLo = 20'000;

std::string slot_name(std::size_t slot) { return "li" + std::to_string(slot); }

/// Canonical bytes of a result table: column names, types and values.
std::string table_bytes(const query::Table& t) {
  std::string bytes;
  for (const std::string& col : t.column_names()) {
    bytes += col;
    bytes.push_back('\0');
    if (t.column_type(col) == query::ColumnType::kInt) {
      for (const std::int64_t v : t.ints(col)) {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
      }
    } else {
      for (const std::string& s : t.strings(col)) {
        bytes += s;
        bytes.push_back('\0');
      }
    }
  }
  return bytes;
}

query::Table make_orders(sim::Rng& rng) {
  std::vector<std::int64_t> id(kOrders), customer(kOrders);
  for (std::size_t i = 0; i < kOrders; ++i) {
    id[i] = static_cast<std::int64_t>(i);
    customer[i] = static_cast<std::int64_t>(rng.uniform_index(kCustomers));
  }
  query::Table t;
  t.add_int_column("order_id", std::move(id));
  t.add_int_column("customer", std::move(customer));
  return t;
}

query::Table make_slice(sim::Rng& rng) {
  std::vector<std::int64_t> order(kRows), amount(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    order[i] = static_cast<std::int64_t>(rng.uniform_index(kOrders));
    amount[i] = static_cast<std::int64_t>(rng.uniform_index(100'000));
  }
  query::Table t;
  t.add_int_column("order_id", std::move(order));
  t.add_int_column("amount", std::move(amount));
  return t;
}

/// The reference interpreter's answer for one slice: the oracle every
/// round's vectorized, LSM-backed result must match byte for byte.
std::string reference_bytes(const query::Table& slice, const query::Table& orders) {
  query::Query q{slice};
  q.join(orders, "order_id", "order_id")
      .where_between("amount", kAmountLo, std::numeric_limits<std::int64_t>::max())
      .group_by("customer", query::Aggregate::kSum, "amount", "revenue")
      .order_by("revenue", true)
      .limit(10);
  return table_bytes(q.run());
}

std::uint64_t simd_rows() {
  std::uint64_t rows = 0;
  for (const obs::MetricSample& m : obs::Registry::global().snapshot()) {
    if (m.name == "accel.simd_rows") rows += static_cast<std::uint64_t>(m.value);
  }
  return rows;
}

}  // namespace

RepResult run_lsm_analytics(const Options& opt, SpanLog& log) {
  RepResult out;
  const std::int64_t s0 = now_ns();
  (void)accel::simd::active_isa();
  sim::Rng rng{opt.seed};
  const query::Table orders = make_orders(rng);
  std::vector<query::Table> slices;
  for (std::size_t i = 0; i < kSlices; ++i) slices.push_back(make_slice(rng));
  const std::int64_t s1 = now_ns();

  storage::MemDevice device;
  storage::LsmOptions lsm_opts;
  lsm_opts.memtable_bytes = kMemtableBytes;
  storage::LsmStore store{lsm_opts, device};
  std::vector<query::exec::Plan> plans;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    plans.push_back(
        query::exec::PlanBuilder(store, slot_name(slot))
            .join(orders, "order_id", "order_id")
            .filter_between("amount", kAmountLo, std::numeric_limits<std::int64_t>::max())
            .group_by("customer", query::Aggregate::kSum, "amount", "revenue")
            .order_by("revenue", true)
            .limit(10)
            .build());
  }
  const std::int64_t s2 = now_ns();
  out.setup_s = static_cast<double>(s2 - s0) * 1e-9;
  out.setup_parts = {{"setup.topology_s", 0.0},
                     {"setup.preload_s", static_cast<double>(s2 - s1) * 1e-9},
                     {"setup.tables_s", static_cast<double>(s1 - s0) * 1e-9}};

  // Traced reps time every operator (a disabled recorder turns on ExecStats
  // busy_ns without emitting events) and count SIMD rows through rb_obs.
  obs::TraceRecorder op_clock;
  op_clock.set_enabled(false);
  query::exec::ExecOptions exec;
  if (opt.traced) exec.trace = &op_clock;
  query::exec::ExecStats stats;
  std::map<std::string, double> busy_ns;
  std::uint64_t rows_in = 0, build_rows = 0;

  std::vector<std::string> results(kRounds);
  std::uint64_t rows_ingested = 0, rows_scanned = 0;
  OpTimer timer{out, log};
  for (int r = 0; r < kRounds; ++r) {
    const std::size_t slot = static_cast<std::size_t>(r) % kSlots;
    const query::Table& slice = slices[static_cast<std::size_t>(r) % kSlices];
    timer.op([&] {
      {
        Scope s{log, "storage.store_table"};
        query::exec::store_table(store, slot_name(slot), slice);
      }
      store.put("m!" + slot_name(slot), std::to_string(r));
      {
        Scope s{log, "storage.sync"};
        store.sync();
      }
      Scope s{log, "query.plan_run"};
      if (opt.traced) obs::set_enabled(true);
      results[static_cast<std::size_t>(r)] =
          table_bytes(plans[slot].run(exec, opt.traced ? &stats : nullptr));
      if (opt.traced) obs::set_enabled(false);
    });
    rows_ingested += slice.row_count();
    rows_scanned += slice.row_count();
    if (opt.traced) {
      rows_in += stats.source_rows;
      for (const auto& op : stats.operators) {
        busy_ns[op.op] += static_cast<double>(op.busy_ns);
        build_rows += op.build_rows;
      }
    }
  }
  const auto phase = timer.finish();
  out.units = static_cast<double>(rows_ingested + rows_scanned);

  // Every round must match the reference interpreter on the slice it stored.
  std::vector<std::string> refs;
  for (const query::Table& slice : slices) refs.push_back(reference_bytes(slice, orders));
  Digest d;
  for (int r = 0; r < kRounds; ++r) {
    const std::string& got = results[static_cast<std::size_t>(r)];
    if (got != refs[static_cast<std::size_t>(r) % kSlices]) {
      ++out.failed_ops;
      out.check(false, "round " + std::to_string(r) + ": result differs from the interpreter");
    }
    d.add_bytes("result", got);
  }
  const storage::LsmStats& st = store.stats();
  d.add("puts", st.puts);
  d.add("gets", st.gets);
  d.add("flushes", st.flushes);
  d.add("compactions", st.compactions);
  d.add("bytes_user", st.bytes_written_user);
  d.add("bytes_internal", st.bytes_written_internal);
  d.add("bytes_wal", st.bytes_written_wal);
  d.add("sstable_probes", st.sstable_probes);
  d.add("bloom_skips", st.bloom_skips);
  d.add("wal_appends", st.wal_appends);
  d.add("wal_syncs", st.wal_syncs);
  d.add("wal_synced_records", st.wal_synced_records);
  out.digest = d.hex();
  out.check(st.flushes > 0 && st.compactions > 0, "write path never flushed or compacted");

  if (!opt.traced) return out;

  attribute(log, phase, out);
  out.layer("storage.ingest_us_p50", median(log.durations_ns("storage.store_table", phase)) * 1e-3);
  out.layer("storage.sync_us_p50", median(log.durations_ns("storage.sync", phase)) * 1e-3);
  out.layer("storage.flushes", static_cast<double>(st.flushes));
  out.layer("storage.compactions", static_cast<double>(st.compactions));
  out.layer("storage.wal_syncs", static_cast<double>(st.wal_syncs));
  out.layer("storage.write_amp", st.write_amplification());

  const std::vector<double> runs = log.durations_ns("query.plan_run", phase);
  double run_ns = 0.0;
  for (const double ns : runs) run_ns += ns;
  out.layer("query.run_us_p50", median(runs) * 1e-3);
  const auto share = [&](const char* op) {
    return run_ns > 0.0 ? busy_ns[op] / run_ns : 0.0;
  };
  out.layer("query.op.lsm_scan.busy_share", 1.0 - share("hash_join"));
  out.layer("query.op.filter.busy_share", share("filter"));
  out.layer("query.op.hash_join.busy_share", share("hash_join"));
  out.layer("query.op.group_aggregate.busy_share", share("group_aggregate"));
  out.layer("query.op.topk.busy_share", share("topk"));
  out.layer("query.rows_in", static_cast<double>(rows_in));
  out.layer("query.build_rows", static_cast<double>(build_rows));
  out.layer("accel.simd_rows", static_cast<double>(simd_rows()));

  // Scan probe: LsmStore::scan of slot 0's row range, as LsmSource issues it.
  const std::string lo = "t!" + slot_name(0) + "!r!";
  const std::string hi = "t!" + slot_name(0) + "!r\"";
  std::uint64_t scanned = 0;
  const std::int64_t p0 = now_ns();
  for (int i = 0; i < 40; ++i) scanned += store.scan(lo, hi).size();
  const std::int64_t p1 = now_ns();
  out.check(scanned == 40 * kRows, "scan probe saw the wrong row count");
  out.layer("storage.scan_rows_per_s",
            static_cast<double>(scanned) / (static_cast<double>(p1 - p0) * 1e-9));
  return out;
}

}  // namespace pb
