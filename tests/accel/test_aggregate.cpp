#include "accel/aggregate.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.hpp"

namespace rb::accel {
namespace {

TEST(Aggregate, EmptyInput) {
  EXPECT_TRUE(group_aggregate({}, AggOp::kSum).empty());
}

TEST(Aggregate, SumPerGroup) {
  const std::vector<Row> rows{{1, 10}, {2, 20}, {1, 5}, {2, 1}, {3, 7}};
  const auto out = group_aggregate(rows, AggOp::kSum);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_EQ(out[0].value, 15u);
  EXPECT_EQ(out[1].value, 21u);
  EXPECT_EQ(out[2].value, 7u);
}

TEST(Aggregate, CountIgnoresPayload) {
  const std::vector<Row> rows{{1, 999}, {1, 999}, {2, 999}};
  const auto out = group_aggregate(rows, AggOp::kCount);
  EXPECT_EQ(out[0].value, 2u);
  EXPECT_EQ(out[1].value, 1u);
}

TEST(Aggregate, MinAndMax) {
  const std::vector<Row> rows{{1, 10}, {1, 3}, {1, 99}};
  EXPECT_EQ(group_aggregate(rows, AggOp::kMin)[0].value, 3u);
  EXPECT_EQ(group_aggregate(rows, AggOp::kMax)[0].value, 99u);
}

TEST(Aggregate, ResultsSortedByKey) {
  sim::Rng rng{7};
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(Row{rng.uniform_index(100), 1});
  }
  const auto out = group_aggregate(rows, AggOp::kSum);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST(Aggregate, MatchesStdMapReference) {
  sim::Rng rng{11};
  std::vector<Row> rows;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const Row r{rng.uniform_index(500), rng.uniform_index(1000)};
    rows.push_back(r);
    reference[r.key] += r.payload;
  }
  const auto out = group_aggregate(rows, AggOp::kSum);
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& g : out) {
    EXPECT_EQ(g.value, reference.at(g.key));
  }
}

TEST(Aggregate, KeyZeroGrouped) {
  const std::vector<Row> rows{{0, 1}, {0, 2}};
  const auto out = group_aggregate(rows, AggOp::kSum);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 0u);
  EXPECT_EQ(out[0].value, 3u);
}

}  // namespace
}  // namespace rb::accel
