#pragma once
// SLO accountant: the serving plane's single source of truth for request
// outcomes and latency.
//
// Every request is recorded exactly once as issued and exactly once as
// completed, rejected, or failed — ledger_ok() checks that partition and is
// asserted by the integration tests (including chaos runs). Latency of
// completed requests feeds an exact percentile tracker (p50/p99/p999 are
// headline numbers, so no bucket approximation), and when rb_obs is enabled
// the outcome counts mirror into the global registry (serve.* counters) and
// each request gets an async trace span on the "serve.request" track.

#include <cstdint>

#include "obs/rollup.hpp"
#include "serve/request.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace rb::serve {

class SloAccountant {
 public:
  SloAccountant();

  /// Attach streaming telemetry sinks (both optional, not owned; must
  /// outlive the accountant or be detached with nullptr). Each terminal
  /// outcome is fed to `alerts` as good/bad — completed within
  /// `slo_latency_s` is good; completed-but-late, failed and rejected are
  /// bad (they all burn the availability/latency error budget). `rollup`
  /// gets per-window serve counters plus a latency value series. With
  /// slo_latency_s <= 0 every completion counts good.
  void attach_telemetry(obs::Rollup* rollup, obs::AlertEngine* alerts,
                        double slo_latency_s = 0.0);

  void on_issued(const Request& req);
  void on_completed(const Request& req, sim::SimTime now);
  void on_rejected(const Request& req, Overloaded reason, sim::SimTime now);
  void on_failed(const Request& req, sim::SimTime now);
  /// One failover retry scheduled (not a terminal state).
  void on_retry(const Request& req);

  std::uint64_t issued() const noexcept { return issued_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t retries() const noexcept { return retries_; }

  /// completed + rejected + failed == issued — every request reached
  /// exactly one terminal state.
  bool ledger_ok() const noexcept {
    return completed_ + rejected_ + failed_ == issued_;
  }

  /// Fraction of issued requests that completed (0 when none issued).
  double availability() const noexcept;
  /// Completed requests per second of simulated time (0 for horizon <= 0).
  double goodput_qps(sim::SimTime horizon) const noexcept;

  /// End-to-end latency (seconds) of completed requests.
  const sim::PercentileTracker& latency_seconds() const noexcept {
    return latency_;
  }

 private:
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  sim::PercentileTracker latency_;
  obs::Rollup* rollup_ = nullptr;          // not owned
  obs::AlertEngine* alerts_ = nullptr;     // not owned
  /// rollup_'s series, resolved on first record so the rollup lists only
  /// series that saw data.
  obs::WindowedSeries* issued_s_ = nullptr;
  obs::WindowedSeries* completed_s_ = nullptr;
  obs::WindowedSeries* rejected_s_ = nullptr;
  obs::WindowedSeries* failed_s_ = nullptr;
  obs::WindowedSeries* latency_s_ = nullptr;
  double slo_latency_s_ = 0.0;
};

}  // namespace rb::serve
