#include "obs/log.hpp"

#include <iostream>
#include <mutex>

namespace rb::obs {

namespace {
std::mutex g_log_mutex;
std::atomic<LogSink> g_sink{nullptr};
}  // namespace

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void set_log_sink_for_testing(LogSink sink) noexcept {
  g_sink.store(sink, std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view component,
              std::string_view msg) {
  if (level < log_level() || level == LogLevel::kOff) return;
  std::string line;
  line.reserve(component.size() + msg.size() + 16);
  line += '[';
  line += log_level_name(level);
  line += "] ";
  line += component;
  line += ": ";
  line += msg;
  const std::scoped_lock lock{g_log_mutex};
  if (const LogSink sink = g_sink.load(std::memory_order_relaxed)) {
    sink(line);
  } else {
    std::cerr << line << '\n';
  }
}

void Logger::log(LogLevel level, std::string_view msg) const {
  log_line(level, component_, msg);
}

}  // namespace rb::obs
