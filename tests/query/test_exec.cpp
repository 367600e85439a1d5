// Unit tests for the vectorized push-based engine: column batches, the
// operator chain, the LSM-backed table codec, and the Plan compiler.

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/operators.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"

namespace rb::query::exec {
namespace {

Table people() {
  Table t;
  t.add_string_column("name", {"ada", "bob", "cyd", "dan"});
  t.add_int_column("age", {30, 25, 35, 25});
  t.add_int_column("team", {1, 2, 1, 3});
  return t;
}

void expect_tables_equal(const Table& a, const Table& b) {
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.column_names(), b.column_names());
  for (const auto& col : a.column_names()) {
    ASSERT_EQ(a.column_type(col), b.column_type(col)) << col;
    if (a.column_type(col) == ColumnType::kInt) {
      EXPECT_EQ(a.ints(col), b.ints(col)) << col;
    } else {
      EXPECT_EQ(a.strings(col), b.strings(col)) << col;
    }
  }
}

TEST(BatchSchema, RejectsDuplicateAndEmptyNames) {
  BatchSchema s;
  s.add("a", ColumnType::kInt);
  EXPECT_THROW(s.add("a", ColumnType::kString), std::invalid_argument);
  EXPECT_THROW(s.add("", ColumnType::kInt), std::invalid_argument);
}

TEST(BatchSchema, TypedIndexOfChecksType) {
  auto s = BatchSchema::of(people());
  EXPECT_EQ(s.index_of("age"), 1u);
  EXPECT_EQ(s.index_of("age", ColumnType::kInt), 1u);
  EXPECT_THROW(s.index_of("age", ColumnType::kString), std::invalid_argument);
  EXPECT_THROW(s.index_of("missing"), std::invalid_argument);
}

TEST(ColumnBatch, SelectionNarrowsActiveRows) {
  auto schema = std::make_shared<BatchSchema>(BatchSchema::of(people()));
  ColumnBatch b{schema, 8};
  b.ints(1) = {30, 25, 35};
  b.ints(2) = {1, 2, 1};
  b.strings(0) = {"ada", "bob", "cyd"};
  b.set_row_count(3);
  EXPECT_EQ(b.active_count(), 3u);
  b.set_selection({0, 2});
  EXPECT_EQ(b.active_count(), 2u);
  EXPECT_EQ(b.row_count(), 3u);
  std::vector<std::uint32_t> seen;
  b.for_each_active([&seen](std::uint32_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2}));
  b.clear();
  EXPECT_EQ(b.active_count(), 0u);
  EXPECT_FALSE(b.has_selection());
}

TEST(ColumnBatch, SetRowCountValidatesColumnLengths) {
  auto schema = std::make_shared<BatchSchema>(BatchSchema::of(people()));
  ColumnBatch b{schema, 8};
  b.ints(1) = {30, 25};
  EXPECT_THROW(b.set_row_count(2), std::invalid_argument);
}

TEST(Plan, ZeroBatchSizeThrows) {
  auto plan = PlanBuilder(people()).build();
  ExecOptions opts;
  opts.batch_size = 0;
  EXPECT_THROW(plan.run(opts), std::invalid_argument);
}

TEST(Plan, FilterMatchesReference) {
  auto query = Query(people()).where_int("age", [](std::int64_t a) {
    return a > 26;
  });
  expect_tables_equal(compile(query).run(), query.run());
}

TEST(Plan, RunsAcrossBatchSizes) {
  Table orders;
  std::vector<std::int64_t> ids, amounts;
  for (std::int64_t i = 0; i < 100; ++i) {
    ids.push_back(i % 7);
    amounts.push_back(i * 3 % 101);
  }
  orders.add_int_column("id", std::move(ids));
  orders.add_int_column("amount", std::move(amounts));
  auto query = Query(orders)
                   .where_int("amount", [](std::int64_t a) { return a > 20; })
                   .group_by("id", Aggregate::kSum, "amount", "total")
                   .order_by("total", true);
  const auto reference = query.run();
  for (const std::size_t bs : {1u, 3u, 64u, 4096u}) {
    ExecOptions opts;
    opts.batch_size = bs;
    expect_tables_equal(compile(query).run(opts), reference);
  }
}

TEST(Plan, DescribeShowsFusedChain) {
  auto plan = PlanBuilder(people())
                  .filter_int("age", [](std::int64_t) { return true; })
                  .order_by("age", true)
                  .limit(2)
                  .build();
  EXPECT_EQ(plan.describe(),
            (std::vector<std::string>{"scan", "filter", "topk", "collect"}));
}

TEST(Plan, DescribeKeepsUnfusedOrderBy) {
  auto plan = PlanBuilder(people()).order_by("age").build();
  EXPECT_EQ(plan.describe(),
            (std::vector<std::string>{"scan", "order_by", "collect"}));
}

TEST(Plan, HugeLimitDoesNotFuseIntoTopK) {
  auto plan = PlanBuilder(people())
                  .order_by("age")
                  .limit(std::size_t{1} << 20)
                  .build();
  EXPECT_EQ(plan.describe(), (std::vector<std::string>{
                                 "scan", "order_by", "limit", "collect"}));
  EXPECT_EQ(plan.run().row_count(), 4u);
}

TEST(Plan, TopKMatchesStableSortPlusLimit) {
  Table t;
  t.add_int_column("v", {5, 1, 5, 3, 5, 1, 2, 5});
  t.add_int_column("row", {0, 1, 2, 3, 4, 5, 6, 7});
  auto query = Query(t).order_by("v", true).limit(3);
  ExecOptions opts;
  opts.batch_size = 2;
  expect_tables_equal(compile(query).run(opts), query.run());
}

TEST(Plan, LimitStopsScanEarly) {
  std::vector<std::int64_t> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Table t;
  t.add_int_column("v", std::move(v));
  auto query = Query(t)
                   .where_int("v", [](std::int64_t x) { return x % 2 == 0; })
                   .limit(5);
  auto plan = compile(query);
  ExecOptions opts;
  opts.batch_size = 64;
  ExecStats stats;
  const auto result = plan.run(opts, &stats);
  expect_tables_equal(result, query.run());
  EXPECT_LT(stats.source_rows, 10'000u);  // stopped after the limit filled
}

TEST(Plan, BlockingOperatorPreventsEarlyStop) {
  std::vector<std::int64_t> v(1'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Table t;
  t.add_int_column("v", std::move(v));
  auto query = Query(t).order_by("v", true).limit(1);
  auto plan = compile(query);
  ExecStats stats;
  const auto result = plan.run({}, &stats);
  expect_tables_equal(result, query.run());
  EXPECT_EQ(stats.source_rows, 1'000u);  // topk must see every row
}

TEST(Plan, ExecStatsRecordsChain) {
  Table teams;
  teams.add_int_column("team", {1, 2});
  teams.add_string_column("team_name", {"arch", "db"});
  auto query = Query(people())
                   .join(teams, "team", "team")
                   .group_by("team_name", Aggregate::kCount, "age", "n");
  ExecStats stats;
  const auto result = compile(query).run({}, &stats);
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(stats.source, "scan");
  EXPECT_EQ(stats.source_rows, 4u);
  ASSERT_EQ(stats.operators.size(), 3u);  // join, group, collect
  EXPECT_EQ(stats.operators[0].op, "hash_join");
  EXPECT_EQ(stats.operators[0].rows_in, 4u);
  EXPECT_EQ(stats.operators[0].rows_out, 3u);  // dan's team 3 has no match
  EXPECT_EQ(stats.operators[0].build_rows, 2u);
  EXPECT_EQ(stats.operators[1].op, "group_aggregate");
  EXPECT_EQ(stats.operators[1].rows_in, 3u);
  EXPECT_EQ(stats.operators[2].op, "collect");
  EXPECT_EQ(stats.operators[2].rows_in, 2u);
}

TEST(Plan, PublishesRegistryCountersWhenEnabled) {
  // accel.simd_rows{kernel} is the one registry metric the engine publishes
  // (perfbench reads it); a dense where_between batch adds its row count.
  auto& reg = obs::Registry::global();
  reg.reset_for_test();
  obs::set_enabled(true);
  const Table result = Query(people()).where_between("age", 30, 40)
                           .run_vectorized();
  obs::set_enabled(false);
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(reg.counter("accel.simd_rows", {{"kernel", "select_between"}})
                .value(),
            4u);
  reg.reset_for_test();
}

TEST(Plan, DisabledObsPublishesNothing) {
  auto& reg = obs::Registry::global();
  reg.reset_for_test();
  ASSERT_FALSE(obs::enabled());
  const Table result = Query(people()).where_between("age", 30, 40)
                           .run_vectorized();
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(reg.counter("accel.simd_rows", {{"kernel", "select_between"}})
                .value(),
            0u);
}

TEST(Plan, EmitsOperatorSpansWhenTraced) {
  obs::TraceRecorder trace;
  trace.set_enabled(true);
  auto query = Query(people())
                   .where_int("age", [](std::int64_t a) { return a >= 25; })
                   .group_by("team", Aggregate::kSum, "age", "total");
  ExecOptions opts;
  opts.trace = &trace;
  compile(query).run(opts);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);  // filter, group_aggregate, collect
  EXPECT_EQ(events[0].category, "query.op");
  EXPECT_EQ(events[0].name, "filter");
  EXPECT_EQ(events[1].name, "group_aggregate");
  EXPECT_EQ(events[2].name, "collect");
  bool found_rows_in = false;
  for (const auto& arg : events[0].args) {
    if (arg.key == "rows_in") {
      found_rows_in = true;
      EXPECT_EQ(arg.value, "4");
    }
  }
  EXPECT_TRUE(found_rows_in);
}

TEST(Plan, DeterministicAcrossRuns) {
  Table t;
  std::vector<std::int64_t> k, v;
  for (std::int64_t i = 0; i < 500; ++i) {
    k.push_back(i * 37 % 11);
    v.push_back(i * 17 % 97);
  }
  t.add_int_column("k", std::move(k));
  t.add_int_column("v", std::move(v));
  auto query = Query(t)
                   .group_by("k", Aggregate::kMax, "v", "m")
                   .order_by("m", true)
                   .limit(5);
  const auto first = compile(query).run();
  for (int i = 0; i < 3; ++i) {
    expect_tables_equal(compile(query).run(), first);
  }
}

TEST(PlanBuilder, StandaloneChainMatchesQuery) {
  Table teams;
  teams.add_int_column("team", {1, 2});
  teams.add_string_column("team_name", {"arch", "db"});
  auto plan = PlanBuilder(people())
                  .join(teams, "team", "team")
                  .filter_int("age", [](std::int64_t a) { return a >= 25; })
                  .group_by("team_name", Aggregate::kSum, "age", "total")
                  .order_by("total", true)
                  .limit(10)
                  .build();
  const auto expected = Query(people())
                            .join(teams, "team", "team")
                            .where_int("age",
                                       [](std::int64_t a) { return a >= 25; })
                            .group_by("team_name", Aggregate::kSum, "age",
                                      "total")
                            .order_by("total", true)
                            .limit(10)
                            .run();
  expect_tables_equal(plan.run(), expected);
}

TEST(LsmTable, RoundTripsTable) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_table(store, "people", people());
  expect_tables_equal(load_table(store, "people"), people());
}

TEST(LsmTable, RoundTripsEmptyTable) {
  storage::LsmStore store{storage::LsmOptions{}};
  Table empty;
  empty.add_int_column("a", {});
  empty.add_string_column("b", {});
  store_table(store, "empty", empty);
  expect_tables_equal(load_table(store, "empty"), empty);
}

TEST(LsmTable, RejectsBadNames) {
  storage::LsmStore store{storage::LsmOptions{}};
  EXPECT_THROW(store_table(store, "", people()), std::invalid_argument);
  EXPECT_THROW(store_table(store, "a!b", people()), std::invalid_argument);
  EXPECT_THROW(load_table(store, "missing"), std::invalid_argument);
}

TEST(LsmTable, ScanIsByteIdenticalToInMemoryPlan) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_table(store, "people", people());
  auto lsm_plan = PlanBuilder(store, "people")
                      .filter_int("age", [](std::int64_t a) { return a > 24; })
                      .group_by("team", Aggregate::kSum, "age", "total")
                      .order_by("total", true)
                      .build();
  EXPECT_EQ(lsm_plan.describe()[0], "lsm_scan");
  const auto expected =
      Query(people())
          .where_int("age", [](std::int64_t a) { return a > 24; })
          .group_by("team", Aggregate::kSum, "age", "total")
          .order_by("total", true)
          .run();
  ExecStats stats;
  expect_tables_equal(lsm_plan.run({}, &stats), expected);
  EXPECT_EQ(stats.source, "lsm_scan");
  EXPECT_EQ(stats.source_rows, 4u);
}

TEST(LsmTable, SurvivesFlushToSSTables) {
  storage::LsmOptions opts;
  opts.memtable_bytes = 256;  // force SSTable flushes mid-write
  storage::LsmStore store{opts};
  Table t;
  std::vector<std::int64_t> k, v;
  for (std::int64_t i = 0; i < 200; ++i) {
    k.push_back(i % 5);
    v.push_back(i);
  }
  t.add_int_column("k", std::move(k));
  t.add_int_column("v", std::move(v));
  store_table(store, "wide", t);
  store.flush();
  expect_tables_equal(load_table(store, "wide"), t);
}

TEST(LsmTable, SurvivesCrashRecoveryOnDurableStore) {
  storage::MemDevice device;
  {
    storage::LsmOptions opts;
    opts.memtable_bytes = 256;  // flushes + WAL rotations mid-store
    storage::LsmStore store{opts, device};
    store_table(store, "people", people());  // syncs internally
  }
  // Power loss: only fsynced state survives. store_table group-committed
  // the whole table, so the recovered store serves it byte-identically.
  device.reopen();
  storage::LsmStore recovered{storage::LsmOptions{}, device};
  expect_tables_equal(load_table(recovered, "people"), people());
}

}  // namespace
}  // namespace rb::query::exec
