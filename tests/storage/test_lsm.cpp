#include "storage/lsm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "sim/random.hpp"

namespace rb::storage {
namespace {

LsmOptions tiny() {
  LsmOptions options;
  options.memtable_bytes = 256;  // force frequent flushes
  options.runs_per_level = 2;    // force frequent compactions
  options.max_levels = 4;
  return options;
}

TEST(Bloom, NeverFalseNegative) {
  BloomFilter bloom{100};
  for (int i = 0; i < 100; ++i) bloom.insert("key" + std::to_string(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bloom.may_contain("key" + std::to_string(i)));
  }
}

TEST(Bloom, FalsePositiveRateBounded) {
  BloomFilter bloom{1000};
  for (int i = 0; i < 1000; ++i) bloom.insert("in" + std::to_string(i));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    false_positives += bloom.may_contain("out" + std::to_string(i));
  }
  // 10 bits/key, 4 hashes: theoretical ~1-2%; allow generous slack.
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.05);
}

TEST(SsTable, RejectsEmptyAndUnsorted) {
  EXPECT_THROW(SsTable({}), std::invalid_argument);
  EXPECT_THROW(SsTable({{"b", "1", false}, {"a", "2", false}}),
               std::invalid_argument);
  EXPECT_THROW(SsTable({{"a", "1", false}, {"a", "2", false}}),
               std::invalid_argument);
}

TEST(SsTable, GetFindsAndMisses) {
  const SsTable run{{{"a", "1", false}, {"c", "3", true}, {"e", "5", false}}};
  ASSERT_TRUE(run.get("a"));
  EXPECT_EQ(run.get("a")->value, "1");
  EXPECT_FALSE(run.get("a")->tombstone);
  ASSERT_TRUE(run.get("c"));
  EXPECT_TRUE(run.get("c")->tombstone);
  EXPECT_FALSE(run.get("b").has_value());
  EXPECT_FALSE(run.get("z").has_value());
}

TEST(Lsm, PutGetRoundTrip) {
  LsmStore store;
  store.put("hello", "world");
  ASSERT_TRUE(store.get("hello"));
  EXPECT_EQ(*store.get("hello"), "world");
  EXPECT_FALSE(store.get("missing"));
}

TEST(Lsm, OverwriteTakesLatest) {
  LsmStore store{tiny()};
  store.put("k", "v1");
  store.flush();
  store.put("k", "v2");
  EXPECT_EQ(*store.get("k"), "v2");
  store.flush();
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(Lsm, EraseHidesOlderVersions) {
  LsmStore store{tiny()};
  store.put("k", "v");
  store.flush();  // value now in an SSTable
  store.erase("k");
  EXPECT_FALSE(store.get("k"));
  store.flush();  // tombstone now in an SSTable above the value
  EXPECT_FALSE(store.get("k"));
}

TEST(Lsm, ReinsertAfterEraseIsVisible) {
  LsmStore store{tiny()};
  store.put("k", "v1");
  store.erase("k");
  store.put("k", "v2");
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(Lsm, ScanMergesMemtableAndRuns) {
  LsmStore store{tiny()};
  store.put("b", "2");
  store.put("d", "4");
  store.flush();
  store.put("a", "1");
  store.put("c", "3");
  store.erase("d");
  const auto all = store.scan("", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "b");
  EXPECT_EQ(all[2].first, "c");
}

TEST(Lsm, ScanRespectsRange) {
  LsmStore store;
  for (const char c : {'a', 'b', 'c', 'd', 'e'}) {
    store.put(std::string(1, c), "v");
  }
  const auto mid = store.scan("b", "d");  // [b, d)
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].first, "b");
  EXPECT_EQ(mid[1].first, "c");
}

TEST(Lsm, FlushAndCompactionCountersAdvance) {
  LsmStore store{tiny()};
  for (int i = 0; i < 200; ++i) {
    store.put("key" + std::to_string(i), std::string(32, 'x'));
  }
  EXPECT_GT(store.stats().flushes, 0u);
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_GT(store.stats().write_amplification(), 1.0);
}

TEST(Lsm, CompactionBoundsRunsPerLevel) {
  LsmStore store{tiny()};
  for (int i = 0; i < 500; ++i) {
    store.put("key" + std::to_string(i % 97), std::string(24, 'y'));
  }
  for (std::size_t level = 0; level < store.level_count(); ++level) {
    EXPECT_LT(store.runs_in_level(level),
              tiny().runs_per_level + 1)
        << "level " << level;
  }
}

TEST(Lsm, BloomFiltersSkipProbesOnMisses) {
  LsmStore store{tiny()};
  for (int i = 0; i < 300; ++i) {
    store.put("present" + std::to_string(i), "v");
  }
  store.flush();
  for (int i = 0; i < 300; ++i) {
    (void)store.get("absent" + std::to_string(i));
  }
  EXPECT_GT(store.stats().bloom_skips, store.stats().sstable_probes);
}

TEST(Lsm, BloomCountersExportThroughObs) {
  LsmStore store{tiny()};
  for (int i = 0; i < 300; ++i) {
    store.put("present" + std::to_string(i), "v");
  }
  store.flush();
  const auto skips_before = store.stats().bloom_skips;
  for (int i = 0; i < 300; ++i) {
    (void)store.get("absent" + std::to_string(i));
  }
  // Negative lookups are ruled out by the filters: the skip statistic moves.
  EXPECT_GT(store.stats().bloom_skips, skips_before);
}

TEST(Lsm, MatchesStdMapUnderRandomWorkload) {
  sim::Rng rng{2016};
  LsmStore store{tiny()};
  std::map<std::string, std::string> reference;
  for (int op = 0; op < 5000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform_index(200));
    const double dice = rng.uniform();
    if (dice < 0.55) {
      const std::string value = "v" + std::to_string(rng());
      store.put(key, value);
      reference[key] = value;
    } else if (dice < 0.75) {
      store.erase(key);
      reference.erase(key);
    } else {
      const auto got = store.get(key);
      const auto expected = reference.find(key);
      if (expected == reference.end()) {
        EXPECT_FALSE(got.has_value()) << key << " at op " << op;
      } else {
        ASSERT_TRUE(got.has_value()) << key << " at op " << op;
        EXPECT_EQ(*got, expected->second) << key << " at op " << op;
      }
    }
  }
  // Final full comparison through scan().
  const auto all = store.scan("", "");
  ASSERT_EQ(all.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [key, value] : all) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
}

TEST(Lsm, SizeCountsLiveKeysOnly) {
  LsmStore store{tiny()};
  store.put("a", "1");
  store.put("b", "2");
  store.erase("a");
  EXPECT_EQ(store.size(), 1u);
}

TEST(Lsm, RejectsBadOptions) {
  LsmOptions bad;
  bad.memtable_bytes = 0;
  EXPECT_THROW(LsmStore{bad}, std::invalid_argument);
  bad = LsmOptions{};
  bad.runs_per_level = 1;
  EXPECT_THROW(LsmStore{bad}, std::invalid_argument);
}

TEST(Lsm, OptionsErrorsAreTypedAndNameTheField) {
  LsmOptions bad;
  bad.memtable_bytes = 0;
  try {
    bad.validate();
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "memtable_bytes");
    EXPECT_NE(std::string{e.what()}.find("LsmOptions.memtable_bytes"),
              std::string::npos);
  }

  bad = LsmOptions{};
  bad.runs_per_level = 1;  // a single-run level could never merge
  try {
    bad.validate();
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "runs_per_level");
  }

  bad = LsmOptions{};
  bad.max_levels = 0;  // nowhere to flush to
  try {
    LsmStore store{bad};
    FAIL() << "expected LsmOptionsError";
  } catch (const LsmOptionsError& e) {
    EXPECT_EQ(e.field(), "max_levels");
  }

  EXPECT_NO_THROW(LsmOptions{}.validate());
}

TEST(Lsm, ScanTombstoneShadowsLowerLevelMidRange) {
  LsmStore store{tiny()};
  store.put("a", "1");
  store.put("m", "mid");
  store.put("z", "9");
  store.flush();  // values now in a run
  store.erase("m");
  store.flush();  // tombstone in a *newer* run above the value
  const auto all = store.scan("a", "zz");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "z");
  // The shadow holds when the tombstone is still in the memtable too.
  store.put("m", "back");
  store.flush();
  store.erase("m");
  EXPECT_EQ(store.scan("a", "zz").size(), 2u);
}

TEST(Lsm, ScanEmptyAndDegenerateRanges) {
  LsmStore store{tiny()};
  store.put("b", "2");
  store.put("c", "3");
  store.flush();
  EXPECT_TRUE(store.scan("b", "b").empty());  // lo == hi: empty [b, b)
  EXPECT_TRUE(store.scan("x", "a").empty());  // inverted range
  EXPECT_TRUE(LsmStore{tiny()}.scan("", "").empty());  // empty store
  const auto from_lo = store.scan("b", "");
  ASSERT_EQ(from_lo.size(), 2u);  // empty hi = unbounded
  EXPECT_EQ(from_lo[0].first, "b");
}

TEST(Lsm, ScanSeesWritesAcrossFlushBoundary) {
  LsmStore store{tiny()};
  store.put("a", "old");
  store.put("b", "keep");
  store.flush();
  store.put("a", "new");   // overwrites the flushed version
  store.put("c", "fresh"); // memtable-only
  const auto all = store.scan("", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (std::pair<std::string, std::string>{"a", "new"}));
  EXPECT_EQ(all[1], (std::pair<std::string, std::string>{"b", "keep"}));
  EXPECT_EQ(all[2], (std::pair<std::string, std::string>{"c", "fresh"}));
}

TEST(Lsm, BloomSkipStatsSurviveCompaction) {
  LsmStore store{tiny()};
  for (int i = 0; i < 100; ++i)
    store.put("present" + std::to_string(i), std::string(24, 'v'));
  store.flush();
  for (int i = 0; i < 200; ++i)
    (void)store.get("absent" + std::to_string(i));
  const auto skips_before = store.stats().bloom_skips;
  EXPECT_GT(skips_before, 0u);
  // Force more flushes until a compaction destroys the probed runs. The
  // accumulated skip statistic must not be lost with them (stats() is the
  // single source of truth; runs keep no counters of their own).
  const auto compactions_before = store.stats().compactions;
  for (int i = 0; i < 200; ++i)
    store.put("filler" + std::to_string(i), std::string(24, 'f'));
  EXPECT_GT(store.stats().compactions, compactions_before);
  EXPECT_GE(store.stats().bloom_skips, skips_before);
}

/// Memtable-size sweep: semantics must not depend on flush cadence.
class FlushCadenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlushCadenceTest, SameAnswersAtEveryCadence) {
  LsmOptions options;
  options.memtable_bytes = GetParam();
  LsmStore store{options};
  std::map<std::string, std::string> reference;
  sim::Rng rng{GetParam()};
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_index(64));
    if (rng.chance(0.8)) {
      store.put(key, "v" + std::to_string(i));
      reference[key] = "v" + std::to_string(i);
    } else {
      store.erase(key);
      reference.erase(key);
    }
  }
  EXPECT_EQ(store.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(store.get(key).has_value()) << key;
    EXPECT_EQ(*store.get(key), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Cadences, FlushCadenceTest,
                         ::testing::Values(64, 256, 1024, 1 << 20));

}  // namespace
}  // namespace rb::storage
