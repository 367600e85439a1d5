#include "accel/hash_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.hpp"

namespace rb::accel {
namespace {

const auto kSum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

TEST(HashTable, EmptyFindReturnsNull) {
  const HashTable64 t;
  EXPECT_EQ(t.find(42), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(HashTable, InsertAndFind) {
  HashTable64 t;
  t.upsert(7, 100, kSum);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(*t.find(7), 100u);
  EXPECT_EQ(t.find(8), nullptr);
}

TEST(HashTable, UpsertCombines) {
  HashTable64 t;
  t.upsert(7, 100, kSum);
  t.upsert(7, 50, kSum);
  EXPECT_EQ(*t.find(7), 150u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashTable, KeyZeroWorks) {
  HashTable64 t;
  t.upsert(0, 11, kSum);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 11u);
  t.upsert(0, 1, kSum);
  EXPECT_EQ(*t.find(0), 12u);
}

TEST(HashTable, ZeroSentinelKeyAlsoWorks) {
  // The internal sentinel value used to remap key 0 is itself a usable
  // key, with an entry of its own: it must not collide with key 0.
  constexpr std::uint64_t kSentinel = 0x8000'0000'0000'0000ULL;
  HashTable64 t;
  t.upsert(kSentinel, 5, kSum);
  t.upsert(0, 7, kSum);
  t.upsert(kSentinel, 1, kSum);
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(kSentinel), nullptr);
  EXPECT_EQ(*t.find(kSentinel), 6u);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 7u);

  std::map<std::uint64_t, std::uint64_t> seen;
  t.for_each([&seen](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen, (std::map<std::uint64_t, std::uint64_t>{{0, 7},
                                                          {kSentinel, 6}}));

  // The batched probe agrees with find(), whichever of the two is stored.
  const std::uint64_t keys[] = {kSentinel, 0, 3, kSentinel};
  std::uint64_t values[4];
  std::uint8_t found[4];
  t.find_batch(keys, 4, values, found);
  EXPECT_EQ(values[0], 6u);
  EXPECT_EQ(values[1], 7u);
  EXPECT_EQ(found[2], 0u);
  EXPECT_EQ(values[3], 6u);
  HashTable64 only_zero;
  only_zero.upsert(0, 9, kSum);
  EXPECT_EQ(only_zero.find(kSentinel), nullptr);
  only_zero.find_batch(keys, 4, values, found);
  EXPECT_EQ(found[0], 0u);
  EXPECT_EQ(values[1], 9u);
  HashTable64 only_sentinel;
  only_sentinel.upsert(kSentinel, 4, kSum);
  EXPECT_EQ(only_sentinel.find(0), nullptr);
  only_sentinel.find_batch(keys, 4, values, found);
  EXPECT_EQ(values[0], 4u);
  EXPECT_EQ(found[1], 0u);
}

TEST(HashTable, GrowthPreservesEntries) {
  HashTable64 t{4};  // force many grows
  for (std::uint64_t k = 1; k <= 10000; ++k) t.upsert(k, k, kSum);
  EXPECT_EQ(t.size(), 10000u);
  for (std::uint64_t k = 1; k <= 10000; ++k) {
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(*t.find(k), k);
  }
}

TEST(HashTable, ForEachVisitsEverything) {
  HashTable64 t;
  for (std::uint64_t k = 0; k < 100; ++k) t.upsert(k, 1, kSum);
  std::size_t visited = 0;
  std::uint64_t key_sum = 0;
  t.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++visited;
    key_sum += k;
    EXPECT_EQ(v, 1u);
  });
  EXPECT_EQ(visited, 100u);
  EXPECT_EQ(key_sum, 4950u);
}

TEST(HashTable, MatchesStdMapOnRandomWorkload) {
  sim::Rng rng{41};
  HashTable64 t;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t k = rng.uniform_index(5000);
    const std::uint64_t v = rng.uniform_index(100);
    t.upsert(k, v, kSum);
    reference[k] += v;
  }
  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), v);
  }
}

TEST(HashTable, MinCombine) {
  HashTable64 t;
  const auto kMin = [](std::uint64_t a, std::uint64_t b) {
    return std::min(a, b);
  };
  t.upsert(1, 50, kMin);
  t.upsert(1, 20, kMin);
  t.upsert(1, 80, kMin);
  EXPECT_EQ(*t.find(1), 20u);
}

}  // namespace
}  // namespace rb::accel
