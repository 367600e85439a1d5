// rb::obs logging: level gating via the atomic global, component-tagged
// Logger streams, and serialized (never interleaved) lines.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"

namespace rb::obs {
namespace {

std::vector<std::string>& captured() {
  static std::vector<std::string> lines;
  return lines;
}

// The sink runs under the log mutex, so plain push_back is race-free even
// when many threads log concurrently.
void capture_sink(std::string_view line) { captured().emplace_back(line); }

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    captured().clear();
    set_log_sink_for_testing(&capture_sink);
    saved_level_ = log_level();
  }
  void TearDown() override {
    set_log_sink_for_testing(nullptr);
    set_log_level(saved_level_);
  }
  LogLevel saved_level_ = LogLevel::kWarning;
};

TEST(Log, LevelsAreOrdered) {
  EXPECT_LT(LogLevel::kDebug, LogLevel::kInfo);
  EXPECT_LT(LogLevel::kInfo, LogLevel::kWarning);
  EXPECT_LT(LogLevel::kWarning, LogLevel::kError);
  EXPECT_LT(LogLevel::kError, LogLevel::kOff);
}

TEST_F(LogTest, LevelGatesLines) {
  set_log_level(LogLevel::kWarning);
  EXPECT_EQ(log_level(), LogLevel::kWarning);
  const Logger log{"net"};
  log.info() << "suppressed";
  log.warn() << "kept";
  ASSERT_EQ(captured().size(), 1u);
  EXPECT_EQ(captured()[0], "[WARN] net: kept");
}

TEST_F(LogTest, StreamFormatsComponents) {
  set_log_level(LogLevel::kDebug);
  const Logger log{"sched"};
  log.debug() << "task " << 42 << " at " << 1.5 << " s";
  ASSERT_EQ(captured().size(), 1u);
  EXPECT_EQ(captured()[0], "[DEBUG] sched: task 42 at 1.5 s");
}

TEST_F(LogTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  const Logger log{"faults"};
  log.error() << "even errors";
  EXPECT_TRUE(captured().empty());
}

TEST_F(LogTest, ConcurrentLinesNeverInterleave) {
  set_log_level(LogLevel::kInfo);
  const Logger log{"pool"};
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kLines; ++i) {
        log.info() << "thread " << t << " line " << i << " padpadpadpad";
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(captured().size(),
            static_cast<std::size_t>(kThreads) * kLines);
  for (const auto& line : captured()) {
    // Every captured line must be exactly one well-formed record.
    EXPECT_EQ(line.rfind("[INFO] pool: thread ", 0), 0u) << line;
    EXPECT_NE(line.find(" padpadpadpad"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace rb::obs
