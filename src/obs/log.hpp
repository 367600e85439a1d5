#pragma once
// Leveled, component-tagged logging for the whole stack: the one logging
// implementation, behind the per-component `Logger` objects used by
// net/sched/faults.
//
// Thread-safety: the global level is a std::atomic (safe to mutate while
// other threads log) and every emitted line is serialized under one mutex,
// so concurrent dataflow workers can never interleave partial lines.
//
// Logging keeps no counters: a component that needs to count an event
// counts it in its own stats, which is what benches and tests read.

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace rb::obs {

enum class LogLevel : int { kDebug, kInfo, kWarning, kError, kOff };

namespace detail {
inline std::atomic<LogLevel> g_log_level{LogLevel::kWarning};
}  // namespace detail

/// Global minimum level. Safe to call from any thread at any time.
inline void set_log_level(LogLevel level) noexcept {
  detail::g_log_level.store(level, std::memory_order_relaxed);
}
inline LogLevel log_level() noexcept {
  return detail::g_log_level.load(std::memory_order_relaxed);
}

std::string_view log_level_name(LogLevel level) noexcept;

/// Emit one line ("[LEVEL] component: msg") to the sink if `level` passes
/// the threshold. Lines are serialized; never interleaved.
void log_line(LogLevel level, std::string_view component,
              std::string_view msg);

/// Redirect log output for tests (nullptr restores stderr). The sink is
/// invoked with the fully-formatted line, under the log mutex.
using LogSink = void (*)(std::string_view line);
void set_log_sink_for_testing(LogSink sink) noexcept;

/// A named component's log handle. Cheap to construct; typically one
/// per subsystem (e.g. `Logger{"net"}`).
class Logger {
 public:
  explicit Logger(std::string component) : component_{std::move(component)} {}

  const std::string& component() const noexcept { return component_; }

  bool should_log(LogLevel level) const noexcept {
    return level >= log_level() && level != LogLevel::kOff;
  }

  void log(LogLevel level, std::string_view msg) const;

  /// Stream-style: logger.info() << "flow " << id << " rerouted";
  /// Suppressed levels skip formatting entirely (no ostringstream work).
  class Stream {
   public:
    Stream(const Logger& logger, LogLevel level)
        : logger_{&logger}, level_{level},
          active_{logger.should_log(level)} {}
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;
    ~Stream() {
      if (active_) logger_->log(level_, buf_.str());
    }

    template <typename T>
    Stream& operator<<(const T& value) {
      if (active_) buf_ << value;
      return *this;
    }

   private:
    const Logger* logger_;
    LogLevel level_;
    bool active_;
    std::ostringstream buf_;
  };

  Stream debug() const { return Stream{*this, LogLevel::kDebug}; }
  Stream info() const { return Stream{*this, LogLevel::kInfo}; }
  Stream warn() const { return Stream{*this, LogLevel::kWarning}; }
  Stream error() const { return Stream{*this, LogLevel::kError}; }

 private:
  std::string component_;
};

}  // namespace rb::obs
