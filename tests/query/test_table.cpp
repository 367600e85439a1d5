#include "query/table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace rb::query {
namespace {

Table people() {
  Table t;
  t.add_string_column("name", {"ada", "bob", "cyd", "dan"});
  t.add_int_column("age", {30, 25, 35, 25});
  t.add_int_column("team", {1, 2, 1, 3});
  return t;
}

TEST(Table, AddColumnsAndAccess) {
  const auto t = people();
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_TRUE(t.has_column("age"));
  EXPECT_FALSE(t.has_column("salary"));
  EXPECT_EQ(t.column_type("name"), ColumnType::kString);
  EXPECT_EQ(t.ints("age")[2], 35);
  EXPECT_EQ(t.strings("name")[0], "ada");
}

TEST(Table, RejectsBadColumns) {
  Table t;
  t.add_int_column("a", {1, 2});
  EXPECT_THROW(t.add_int_column("a", {3, 4}), std::invalid_argument);
  EXPECT_THROW(t.add_int_column("b", {1}), std::invalid_argument);
  EXPECT_THROW(t.add_int_column("", {1, 2}), std::invalid_argument);
  EXPECT_THROW(t.ints("missing"), std::invalid_argument);
  EXPECT_THROW(t.strings("a"), std::invalid_argument);
}

TEST(Table, GatherSelectsAndReorders) {
  const auto t = people();
  const auto picked = t.gather({2, 0});
  EXPECT_EQ(picked.row_count(), 2u);
  EXPECT_EQ(picked.strings("name")[0], "cyd");
  EXPECT_EQ(picked.strings("name")[1], "ada");
  EXPECT_EQ(picked.ints("age")[0], 35);
}

TEST(Table, GatherOutOfRangeThrows) {
  EXPECT_THROW(people().gather({99}), std::out_of_range);
}

TEST(Table, GatherStringColumnsWithDuplicatesAndEmpty) {
  const auto t = people();
  const auto dup = t.gather({1, 1, 3});
  EXPECT_EQ(dup.strings("name"),
            (std::vector<std::string>{"bob", "bob", "dan"}));
  EXPECT_EQ(dup.ints("age"), (std::vector<std::int64_t>{25, 25, 25}));
  const auto none = t.gather({});
  EXPECT_EQ(none.row_count(), 0u);
  EXPECT_EQ(none.column_count(), 3u);
  EXPECT_EQ(none.column_type("name"), ColumnType::kString);
}

TEST(Table, DuplicateColumnAcrossTypesThrows) {
  Table t;
  t.add_int_column("a", {1, 2});
  EXPECT_THROW(t.add_string_column("a", {"x", "y"}), std::invalid_argument);
  Table s;
  s.add_string_column("b", {"x"});
  EXPECT_THROW(s.add_int_column("b", {1}), std::invalid_argument);
}

TEST(Table, TypedAccessMismatchThrows) {
  const auto t = people();
  EXPECT_THROW(t.ints("name"), std::invalid_argument);
  EXPECT_THROW(t.strings("age"), std::invalid_argument);
  EXPECT_THROW(t.column_type("missing"), std::invalid_argument);
}

TEST(Table, ToStringShowsHeaderAndRows) {
  const auto text = people().to_string(2);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("ada"), std::string::npos);
  EXPECT_NE(text.find("(4 rows)"), std::string::npos);
}

TEST(Query, WhereIntFilters) {
  const auto result = Query(people())
                          .where_int("age", [](std::int64_t a) { return a > 26; })
                          .run();
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.strings("name")[0], "ada");
  EXPECT_EQ(result.strings("name")[1], "cyd");
}

TEST(Query, WhereStringFilters) {
  const auto result =
      Query(people())
          .where_string("name",
                        [](const std::string& n) { return n < "c"; })
          .run();
  EXPECT_EQ(result.row_count(), 2u);
}

TEST(Query, ChainedFiltersCompose) {
  const auto result =
      Query(people())
          .where_int("age", [](std::int64_t a) { return a >= 25; })
          .where_int("team", [](std::int64_t t) { return t == 1; })
          .run();
  EXPECT_EQ(result.row_count(), 2u);
}

TEST(Query, ProjectKeepsOnlyNamedColumns) {
  const auto result =
      Query(people()).project({"age", "name"}).run();
  EXPECT_EQ(result.column_count(), 2u);
  EXPECT_EQ(result.column_names()[0], "age");
  EXPECT_THROW(result.ints("team"), std::invalid_argument);
}

TEST(Query, OrderByAscendingAndDescending) {
  const auto asc = Query(people()).order_by("age").run();
  EXPECT_EQ(asc.ints("age").front(), 25);
  EXPECT_EQ(asc.ints("age").back(), 35);
  const auto desc = Query(people()).order_by("age", true).run();
  EXPECT_EQ(desc.ints("age").front(), 35);
}

TEST(Query, OrderByIsStable) {
  // bob and dan both have age 25; their relative order must be preserved.
  const auto result = Query(people()).order_by("age").run();
  EXPECT_EQ(result.strings("name")[0], "bob");
  EXPECT_EQ(result.strings("name")[1], "dan");
}

TEST(Query, LimitTruncates) {
  EXPECT_EQ(Query(people()).limit(2).run().row_count(), 2u);
  EXPECT_EQ(Query(people()).limit(99).run().row_count(), 4u);
}

TEST(Query, GroupByIntKeySum) {
  const auto result =
      Query(people()).group_by("team", Aggregate::kSum, "age", "total").run();
  EXPECT_EQ(result.row_count(), 3u);
  // team 1: 30 + 35.
  const auto& teams = result.ints("team");
  const auto& totals = result.ints("total");
  for (std::size_t i = 0; i < teams.size(); ++i) {
    if (teams[i] == 1) { EXPECT_EQ(totals[i], 65); }
    if (teams[i] == 2) { EXPECT_EQ(totals[i], 25); }
  }
}

TEST(Query, GroupByStringKeyCount) {
  Table t;
  t.add_string_column("word", {"big", "data", "big", "big"});
  t.add_int_column("one", {1, 1, 1, 1});
  const auto result =
      Query(std::move(t))
          .group_by("word", Aggregate::kCount, "one", "n")
          .run();
  EXPECT_EQ(result.row_count(), 2u);
  const auto& words = result.strings("word");
  const auto& counts = result.ints("n");
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(counts[i], words[i] == "big" ? 3 : 1);
  }
}

TEST(Query, GroupByMinMax) {
  const auto min_result =
      Query(people()).group_by("team", Aggregate::kMin, "age", "m").run();
  const auto max_result =
      Query(people()).group_by("team", Aggregate::kMax, "age", "m").run();
  for (std::size_t i = 0; i < min_result.row_count(); ++i) {
    if (min_result.ints("team")[i] == 1) {
      EXPECT_EQ(min_result.ints("m")[i], 30);
    }
  }
  for (std::size_t i = 0; i < max_result.row_count(); ++i) {
    if (max_result.ints("team")[i] == 1) {
      EXPECT_EQ(max_result.ints("m")[i], 35);
    }
  }
}

TEST(Query, GroupByMinMaxHandlesNegativeValues) {
  Table t;
  t.add_int_column("g", {1, 1, 1, 2, 2});
  t.add_int_column("v", {-10, 5, -3, -7, -2});
  const auto min_r = Query(t).group_by("g", Aggregate::kMin, "v", "m").run();
  const auto max_r = Query(t).group_by("g", Aggregate::kMax, "v", "m").run();
  const auto sum_r = Query(t).group_by("g", Aggregate::kSum, "v", "m").run();
  for (std::size_t i = 0; i < 2; ++i) {
    if (min_r.ints("g")[i] == 1) { EXPECT_EQ(min_r.ints("m")[i], -10); }
    if (min_r.ints("g")[i] == 2) { EXPECT_EQ(min_r.ints("m")[i], -7); }
    if (max_r.ints("g")[i] == 1) { EXPECT_EQ(max_r.ints("m")[i], 5); }
    if (max_r.ints("g")[i] == 2) { EXPECT_EQ(max_r.ints("m")[i], -2); }
    if (sum_r.ints("g")[i] == 1) { EXPECT_EQ(sum_r.ints("m")[i], -8); }
    if (sum_r.ints("g")[i] == 2) { EXPECT_EQ(sum_r.ints("m")[i], -9); }
  }
}

TEST(Query, JoinInnerSemantics) {
  Table teams;
  teams.add_int_column("team", {1, 2, 9});
  teams.add_string_column("team_name", {"arch", "db", "ghost"});
  const auto result =
      Query(people()).join(std::move(teams), "team", "team").run();
  // ada(1), bob(2), cyd(1) match; dan(3) and ghost(9) do not.
  EXPECT_EQ(result.row_count(), 3u);
  EXPECT_TRUE(result.has_column("team_name"));
  EXPECT_TRUE(result.has_column("team_r"));  // collision suffix
  for (std::size_t i = 0; i < result.row_count(); ++i) {
    EXPECT_EQ(result.ints("team")[i], result.ints("team_r")[i]);
  }
}

TEST(Query, JoinDuplicateKeysCrossProduct) {
  Table left;
  left.add_int_column("k", {5, 5});
  Table right;
  right.add_int_column("k", {5, 5, 5});
  const auto result = Query(std::move(left)).join(std::move(right), "k", "k").run();
  EXPECT_EQ(result.row_count(), 6u);
}

TEST(Query, EmptyResultFlowsThroughPipeline) {
  const auto result =
      Query(people())
          .where_int("age", [](std::int64_t) { return false; })
          .group_by("team", Aggregate::kSum, "age", "t")
          .order_by("t")
          .limit(5)
          .run();
  EXPECT_EQ(result.row_count(), 0u);
}

TEST(Query, EmptyTableSupportsEveryStageKind) {
  Table empty;
  empty.add_int_column("k", {});
  empty.add_int_column("v", {});
  empty.add_string_column("s", {});
  Table right;
  right.add_int_column("k", {1, 2});
  const auto result =
      Query(empty)
          .where_int("v", [](std::int64_t) { return true; })
          .where_string("s", [](const std::string&) { return true; })
          .join(right, "k", "k")
          .group_by("s", Aggregate::kSum, "v", "total")
          .order_by("total")
          .limit(3)
          .project({"s", "total"})
          .run();
  EXPECT_EQ(result.row_count(), 0u);
  EXPECT_EQ(result.column_names(),
            (std::vector<std::string>{"s", "total"}));
}

TEST(Query, MissingColumnSurfacesAtRun) {
  auto q = Query(people()).where_int("salary",
                                     [](std::int64_t) { return true; });
  EXPECT_THROW(q.run(), std::invalid_argument);
}

TEST(Query, FullAnalyticsPipeline) {
  // The README query shape: join, filter, aggregate, order, limit.
  Table orders;
  orders.add_int_column("order_id", {1, 2, 3, 4});
  orders.add_string_column("customer", {"acme", "acme", "bit", "core"});
  Table items;
  items.add_int_column("order_id", {1, 1, 2, 3, 3, 4});
  items.add_int_column("amount", {100, 50, 300, 20, 80, 500});

  const auto result =
      Query(std::move(orders))
          .join(std::move(items), "order_id", "order_id")
          .where_int("amount", [](std::int64_t a) { return a >= 50; })
          .group_by("customer", Aggregate::kSum, "amount", "revenue")
          .order_by("revenue", true)
          .limit(2)
          .run();
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.strings("customer")[0], "core");  // 500
  EXPECT_EQ(result.ints("revenue")[0], 500);
  EXPECT_EQ(result.strings("customer")[1], "acme");  // 100+50+300
  EXPECT_EQ(result.ints("revenue")[1], 450);
}

/// --- Join and group-by contracts, pinned on both paths -----------------
//
// Each case states the expected table and checks that the reference
// interpreter (run) and the vectorized engine (run_vectorized) both
// produce it, column for column.

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

using IntColumns =
    std::vector<std::pair<std::string, std::vector<std::int64_t>>>;

Table int_table(IntColumns columns) {
  Table t;
  for (auto& [name, values] : columns) {
    t.add_int_column(name, std::move(values));
  }
  return t;
}

void expect_same_table(const Table& actual, const Table& expected) {
  ASSERT_EQ(actual.column_names(), expected.column_names());
  ASSERT_EQ(actual.row_count(), expected.row_count());
  for (const auto& name : expected.column_names()) {
    ASSERT_EQ(actual.column_type(name), expected.column_type(name)) << name;
    if (expected.column_type(name) == ColumnType::kInt) {
      EXPECT_EQ(actual.ints(name), expected.ints(name)) << name;
    } else {
      EXPECT_EQ(actual.strings(name), expected.strings(name)) << name;
    }
  }
}

void expect_both_paths(const Query& q, const Table& expected) {
  {
    SCOPED_TRACE("run()");
    expect_same_table(q.run(), expected);
  }
  {
    SCOPED_TRACE("run_vectorized()");
    expect_same_table(q.run_vectorized(), expected);
  }
}

/// Inner join of {k, lv} with {k, rv} by nested loops: left-major order.
Table nested_loop_join(const std::vector<std::int64_t>& lkeys,
                       const std::vector<std::int64_t>& rkeys) {
  std::vector<std::int64_t> k, lv, k_r, rv;
  for (std::size_t l = 0; l < lkeys.size(); ++l) {
    for (std::size_t r = 0; r < rkeys.size(); ++r) {
      if (lkeys[l] != rkeys[r]) continue;
      k.push_back(lkeys[l]);
      lv.push_back(static_cast<std::int64_t>(l));
      k_r.push_back(rkeys[r]);
      rv.push_back(static_cast<std::int64_t>(r));
    }
  }
  return int_table({{"k", k}, {"lv", lv}, {"k_r", k_r}, {"rv", rv}});
}

/// {k, lv} / {k, rv} tables whose payload is the row index.
Query join_by_index(const std::vector<std::int64_t>& lkeys,
                    const std::vector<std::int64_t>& rkeys) {
  std::vector<std::int64_t> lv(lkeys.size()), rv(rkeys.size());
  for (std::size_t i = 0; i < lv.size(); ++i) {
    lv[i] = static_cast<std::int64_t>(i);
  }
  for (std::size_t i = 0; i < rv.size(); ++i) {
    rv[i] = static_cast<std::int64_t>(i);
  }
  Query q{int_table({{"k", lkeys}, {"lv", lv}})};
  q.join(int_table({{"k", rkeys}, {"rv", rv}}), "k", "k");
  return q;
}

TEST(HashJoin, EmptyInputs) {
  const std::vector<std::int64_t> none, one{1};
  expect_both_paths(join_by_index(none, one), nested_loop_join(none, one));
  expect_both_paths(join_by_index(one, none), nested_loop_join(one, none));
  expect_both_paths(join_by_index(none, none), nested_loop_join(none, none));
}

TEST(HashJoin, SimpleMatch) {
  Query q{int_table({{"k", {1, 2}}, {"lv", {10, 20}}})};
  q.join(int_table({{"k", {2, 3}}, {"rv", {200, 300}}}), "k", "k");
  expect_both_paths(
      q, int_table({{"k", {2}}, {"lv", {20}}, {"k_r", {2}}, {"rv", {200}}}));
}

TEST(HashJoin, DuplicateKeysProduceCrossProduct) {
  Query q{int_table({{"k", {5, 5}}, {"lv", {1, 2}}})};
  q.join(int_table({{"k", {5, 5, 5}}, {"rv", {10, 20, 30}}}), "k", "k");
  // Left-major: each left row, then its matches in right-row order.
  expect_both_paths(q, int_table({{"k", {5, 5, 5, 5, 5, 5}},
                                  {"lv", {1, 1, 1, 2, 2, 2}},
                                  {"k_r", {5, 5, 5, 5, 5, 5}},
                                  {"rv", {10, 20, 30, 10, 20, 30}}}));
}

TEST(HashJoin, KeyZeroJoins) {
  Query q{int_table({{"k", {0}}, {"lv", {1}}})};
  q.join(int_table({{"k", {0}}, {"rv", {2}}}), "k", "k");
  expect_both_paths(
      q, int_table({{"k", {0}}, {"lv", {1}}, {"k_r", {0}}, {"rv", {2}}}));
}

TEST(HashJoin, CountMatchesNestedLoopReference) {
  sim::Rng rng{47};
  std::vector<std::int64_t> lkeys, rkeys;
  for (int i = 0; i < 800; ++i) {
    lkeys.push_back(static_cast<std::int64_t>(rng.uniform_index(100)));
    rkeys.push_back(static_cast<std::int64_t>(rng.uniform_index(100)));
  }
  expect_both_paths(join_by_index(lkeys, rkeys),
                    nested_loop_join(lkeys, rkeys));
}

TEST(HashJoin, MaterializedMatchesCount) {
  // Per key, the materialized join holds |left rows| x |right rows| rows.
  sim::Rng rng{53};
  std::vector<std::int64_t> lkeys, rkeys;
  std::map<std::int64_t, std::int64_t> lcount, rcount;
  for (int i = 0; i < 2000; ++i) {
    lkeys.push_back(static_cast<std::int64_t>(rng.uniform_index(300)));
    rkeys.push_back(static_cast<std::int64_t>(rng.uniform_index(300)));
    ++lcount[lkeys.back()];
    ++rcount[rkeys.back()];
  }
  std::vector<std::int64_t> keys, pairs;
  for (const auto& [k, n] : lcount) {
    const auto it = rcount.find(k);
    if (it == rcount.end()) continue;
    keys.push_back(k);
    pairs.push_back(n * it->second);
  }
  Query q = join_by_index(lkeys, rkeys);
  q.group_by("k", Aggregate::kCount, "rv", "pairs");
  expect_both_paths(q, int_table({{"k", keys}, {"pairs", pairs}}));
}

TEST(HashJoin, SkewedKeysStillCorrect) {
  // Zipf-skewed foreign keys against a unique-key build side: every right
  // row matches exactly one left row.
  sim::Rng rng{59};
  const sim::ZipfDistribution zipf{200, 1.2};
  std::vector<std::int64_t> lkeys, rkeys;
  for (std::int64_t k = 0; k < 200; ++k) lkeys.push_back(k);
  for (int i = 0; i < 10000; ++i) {
    rkeys.push_back(static_cast<std::int64_t>(zipf(rng)));
  }
  const Table expected = nested_loop_join(lkeys, rkeys);
  EXPECT_EQ(expected.row_count(), 10000u);
  expect_both_paths(join_by_index(lkeys, rkeys), expected);
  // The same keys with the skewed side probing.
  expect_both_paths(join_by_index(rkeys, lkeys),
                    nested_loop_join(rkeys, lkeys));
}

TEST(HashJoin, NegativeAndExtremeKeys) {
  const std::vector<std::int64_t> lkeys{kMax, -1, 1, kMin, 7};
  const std::vector<std::int64_t> rkeys{kMin, -1, kMax, -1, 3};
  // Output stays left-major whatever the key's sign.
  expect_both_paths(join_by_index(lkeys, rkeys),
                    int_table({{"k", {kMax, -1, -1, kMin}},
                               {"lv", {0, 1, 1, 3}},
                               {"k_r", {kMax, -1, -1, kMin}},
                               {"rv", {2, 1, 3, 0}}}));
}

TEST(HashJoin, KeyZeroAndInt64MinAreDistinct) {
  // INT64_MIN's bit pattern is the hash table's stand-in for key 0.
  expect_both_paths(join_by_index({0, kMin}, {kMin}),
                    int_table({{"k", {kMin}},
                               {"lv", {1}},
                               {"k_r", {kMin}},
                               {"rv", {0}}}));
  expect_both_paths(join_by_index({kMin, 0}, {0}),
                    int_table({{"k", {0}},
                               {"lv", {1}},
                               {"k_r", {0}},
                               {"rv", {0}}}));
}

Query group(IntColumns columns, Aggregate agg) {
  Query q{int_table(std::move(columns))};
  q.group_by("k", agg, "v", "r");
  return q;
}

TEST(Aggregate, EmptyInput) {
  for (const auto agg : {Aggregate::kSum, Aggregate::kCount, Aggregate::kMin,
                         Aggregate::kMax}) {
    expect_both_paths(group({{"k", {}}, {"v", {}}}, agg),
                      int_table({{"k", {}}, {"r", {}}}));
  }
}

TEST(Aggregate, SumPerGroup) {
  expect_both_paths(
      group({{"k", {1, 2, 1, 2, 3}}, {"v", {10, 20, 5, 1, 7}}},
            Aggregate::kSum),
      int_table({{"k", {1, 2, 3}}, {"r", {15, 21, 7}}}));
}

TEST(Aggregate, CountIgnoresPayload) {
  expect_both_paths(
      group({{"k", {1, 1, 2}}, {"v", {999, 999, 999}}}, Aggregate::kCount),
      int_table({{"k", {1, 2}}, {"r", {2, 1}}}));
}

TEST(Aggregate, MinAndMax) {
  const IntColumns rows{{"k", {1, 1, 1}}, {"v", {10, 3, 99}}};
  expect_both_paths(group(rows, Aggregate::kMin),
                    int_table({{"k", {1}}, {"r", {3}}}));
  expect_both_paths(group(rows, Aggregate::kMax),
                    int_table({{"k", {1}}, {"r", {99}}}));
}

TEST(Aggregate, KeyZeroGrouped) {
  expect_both_paths(group({{"k", {0, 0}}, {"v", {1, 2}}}, Aggregate::kSum),
                    int_table({{"k", {0}}, {"r", {3}}}));
}

/// Random (k, v) rows with a std::map SUM reference, in key order.
std::pair<IntColumns, Table> random_sums(std::uint64_t seed, int n,
                                         std::uint64_t key_range) {
  sim::Rng rng{seed};
  std::vector<std::int64_t> ks, vs;
  std::map<std::int64_t, std::int64_t> reference;
  for (int i = 0; i < n; ++i) {
    ks.push_back(static_cast<std::int64_t>(rng.uniform_index(key_range)));
    vs.push_back(static_cast<std::int64_t>(rng.uniform_index(1000)));
    reference[ks.back()] += vs.back();
  }
  std::vector<std::int64_t> keys, sums;
  for (const auto& [k, sum] : reference) {
    keys.push_back(k);
    sums.push_back(sum);
  }
  return {IntColumns{{"k", ks}, {"v", vs}},
          int_table({{"k", keys}, {"r", sums}})};
}

TEST(Aggregate, ResultsSortedByKey) {
  const auto [rows, expected] = random_sums(7, 1000, 100);
  const auto& keys = expected.ints("k");
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
  expect_both_paths(group(rows, Aggregate::kSum), expected);
}

TEST(Aggregate, MatchesStdMapReference) {
  const auto [rows, expected] = random_sums(11, 20000, 500);
  expect_both_paths(group(rows, Aggregate::kSum), expected);
}

TEST(Aggregate, NegativeAndExtremeKeysEmitInKeyCodeOrder) {
  // Unsigned key-code order: 0 .. INT64_MAX, then INT64_MIN .. -1.
  const IntColumns rows{{"k", {-1, kMax, 1, kMin, -5, 5, -1, kMin, kMax}},
                        {"v", {4, kMax, 2, -3, 6, -8, -9, kMin, 1}}};
  const std::vector<std::int64_t> order{1, 5, kMax, kMin, -5, -1};
  // Sums wrap: kMax + 1 is kMin, and kMin - 3 is kMax - 2.
  expect_both_paths(
      group(rows, Aggregate::kSum),
      int_table({{"k", order}, {"r", {2, -8, kMin, kMax - 2, 6, -5}}}));
  expect_both_paths(group(rows, Aggregate::kCount),
                    int_table({{"k", order}, {"r", {1, 1, 2, 2, 1, 2}}}));
  expect_both_paths(group(rows, Aggregate::kMin),
                    int_table({{"k", order}, {"r", {2, -8, 1, kMin, 6, -9}}}));
  expect_both_paths(group(rows, Aggregate::kMax),
                    int_table({{"k", order}, {"r", {2, -8, kMax, -3, 6, 4}}}));
}

TEST(Aggregate, KeyZeroAndInt64MinAreDistinct) {
  // INT64_MIN's bit pattern is the hash table's stand-in for key 0.
  expect_both_paths(
      group({{"k", {kMin, 0, kMin, 0, 0}}, {"v", {1, 2, 3, 4, 5}}},
            Aggregate::kSum),
      int_table({{"k", {0, kMin}}, {"r", {11, 4}}}));
}

TEST(Aggregate, StringKeysEmitInFirstAppearanceOrder) {
  Table t;
  t.add_string_column("k", {"zeta", "alpha", "zeta", "mid", "alpha"});
  t.add_int_column("v", {1, 2, 3, 4, 5});
  Query q{std::move(t)};
  q.group_by("k", Aggregate::kSum, "v", "r");
  Table expected;
  expected.add_string_column("k", {"zeta", "alpha", "mid"});
  expected.add_int_column("r", {4, 7, 4});
  expect_both_paths(q, expected);
}

}  // namespace
}  // namespace rb::query
