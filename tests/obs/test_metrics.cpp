// rb::obs metrics registry: counter/gauge semantics, thread-safe
// exact counting, label handling, in-place reset, and the JSON exporter
// round-trip.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rb::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, NThreadsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Registry, SameNameSameLabelsSameInstance) {
  Registry r;
  Counter& a = r.counter("requests");
  Counter& b = r.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Registry, LabelsDistinguishSeries) {
  Registry r;
  Counter& fwd = r.counter("link_util", {{"dir", "fwd"}});
  Counter& rev = r.counter("link_util", {{"dir", "rev"}});
  EXPECT_NE(&fwd, &rev);
  fwd.add(1);
  rev.add(2);
  EXPECT_EQ(fwd.value(), 1u);
  EXPECT_EQ(rev.value(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::invalid_argument);
}

TEST(Registry, SnapshotCarriesKindAndLabels) {
  Registry r;
  r.counter("c", {{"k", "v"}}).add(3);
  r.gauge("g").set(1.5);
  const auto samples = r.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  bool saw_counter = false;
  for (const auto& s : samples) {
    if (s.name == "c") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "k");
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(Registry, JsonExportParses) {
  Registry r;
  r.counter("flows \"quoted\"", {{"topo", "fat\ntree"}}).add(12);
  r.gauge("depth").set(3.25);
  const JsonValue doc = json_parse(r.to_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("metrics").is_array());
  EXPECT_EQ(doc.at("metrics").array.size(), 2u);
  bool saw_gauge = false;
  for (const auto& m : doc.at("metrics").array) {
    if (m.at("name").string == "depth") {
      saw_gauge = true;
      EXPECT_EQ(m.at("kind").string, "gauge");
      EXPECT_DOUBLE_EQ(m.at("value").number, 3.25);
    }
    if (m.at("name").string == "flows \"quoted\"") {
      EXPECT_EQ(m.at("labels").at("topo").string, "fat\ntree");
    }
  }
  EXPECT_TRUE(saw_gauge);
}

TEST(Registry, ResetForTestZeroesInPlaceKeepingIdentity) {
  Registry r;
  Counter& c = r.counter("c");
  Gauge& g = r.gauge("g");
  c.add(5);
  g.set(2.0);
  r.reset_for_test();
  // References cached by instrumentation sites stay valid and keep pointing
  // at the same (now zeroed) metric objects.
  EXPECT_EQ(&r.counter("c"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(r.snapshot().size(), 2u);  // entries survive, values zeroed
}

TEST(EnabledFlag, DefaultsOffAndToggles) {
  // The global default must be off so unobserved runs skip all telemetry.
  // (Other tests may have toggled it; assert the toggle works and restore.)
  const bool before = enabled();
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(before);
}

}  // namespace
}  // namespace rb::obs
