#pragma once
// Shared plumbing of the perfbench binary: the host clock, the bench-owned
// span log behind traced runs, output digests, and the per-process result
// every workload fills in.
//
// One process runs one repetition ("rep") of one workload: set-up, a timed
// phase made of ops, then output checks. run.py launches reps as fresh
// processes and aggregates them, so no process-global state outlives a rep.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded from the bench's own files around each public call into a
/// layer: name, start, end and parent. Kept in memory, written once at exit
/// as Chrome trace JSON. A disabled log records nothing and never reads the
/// clock.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_{enabled} {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled). `name` must be a string literal.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  /// Seconds of [t0, t1] covered by top-level spans.
  double covered_seconds(std::int64_t t0, std::int64_t t1) const;
  /// Self time per name of the spans that start in [t0, t1]: duration
  /// minus the time their children cover.
  std::map<std::string, double> self_seconds(std::int64_t t0, std::int64_t t1) const;
  /// Durations (ns) of the spans called `name` that start in [t0, t1].
  std::vector<double> durations_ns(std::string_view name,
                                   std::pair<std::int64_t, std::int64_t> phase) const;

  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op on a disabled log.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_{log}, id_{log.open(name)} {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// FNV-1a over a canonical byte stream of named fields.
class Digest {
 public:
  void add(std::string_view field, std::uint64_t v);
  void add(std::string_view field, std::int64_t v);
  /// Exact bit pattern: simulated outputs must stay byte-identical.
  void add(std::string_view field, double v);
  void add_bytes(std::string_view field, std::string_view bytes);
  std::string hex() const;

 private:
  void mix(std::string_view bytes);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// serve_gray only: attach the RequestTracer, Rollup and AlertEngine.
  bool telemetry = true;
  std::string trace_out;  // Chrome trace path (traced reps; empty = none)
};

/// What one rep reports. Layer metrics are filled on traced reps only.
struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double units = 0.0;  // work units of the timed phase
  std::vector<std::int64_t> op_ns;
  std::uint64_t failed_ops = 0;
  std::string digest;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> setup_parts;
  /// Traced reps: self time of each span name as a share of the timed
  /// phase ("other" = time no span covers).
  std::vector<std::pair<std::string, double>> self_shares;

  void layer(std::string name, double v) {
    layers.emplace_back(std::move(name), v);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Times each op of the timed phase and, on traced reps, wraps it in an
/// "op" span. The phase's wall time runs from construction to finish().
class OpTimer {
 public:
  OpTimer(RepResult& out, SpanLog& log)
      : out_{out}, log_{log}, t0_{now_ns()} {}
  template <typename Fn>
  void op(Fn&& fn) {
    const std::int32_t id = log_.open("op");
    const std::int64_t s = now_ns();
    fn();
    out_.op_ns.push_back(now_ns() - s);
    log_.close(id);
  }
  /// Ends the phase; returns [t0, t1] in ns.
  std::pair<std::int64_t, std::int64_t> finish() {
    const std::int64_t t1 = now_ns();
    out_.wall_s = static_cast<double>(t1 - t0_) * 1e-9;
    return {t0_, t1};
  }

 private:
  RepResult& out_;
  SpanLog& log_;
  std::int64_t t0_;
};

/// Median of a copy of `v`, interpolated (0 when empty).
double median(std::vector<double> v);

/// Traced-run attribution: top-level span coverage of the timed phase, plus
/// each span name's self time as a share of it (remainder is "other").
void attribute(const SpanLog& log, std::pair<std::int64_t, std::int64_t> phase,
               RepResult& out);

// Shared probes (probes.cpp).

/// Self-rescheduling events on a fresh Simulator with serving-sized
/// captures, one scheduled event in four cancelled; host ns per fired event.
double probe_sim_ns_per_event(std::uint64_t seed);
/// Router::path over serve_gray's gateway<->replica-host pairs (hosts[0]
/// and the next 8 hosts of a fresh fat_tree(4)) x seeded ECMP hashes; host
/// ns per call.
double probe_route_ns(std::uint64_t seed);

/// The host's own noise floor, for the steadiness tool: a register-only
/// ALU loop and a 16 MiB pointer chase, seconds each.
struct HostFloor {
  double alu_s = 0.0;
  double chase_s = 0.0;
  std::uint64_t sink = 0;  // keeps both loops' results live
};
HostFloor host_floor();

// Workloads.
RepResult run_serve_gray(const Options& opt, SpanLog& log);
RepResult run_fabric_churn(const Options& opt, SpanLog& log);
RepResult run_lsm_analytics(const Options& opt, SpanLog& log);

}  // namespace pb
