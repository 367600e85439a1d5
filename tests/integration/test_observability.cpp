// End-to-end observability: seeded chaos runs traced through the global
// recorder produce deterministic sim-time span sequences, spans that
// reconcile with the fabric/scheduler counters, and valid Chrome JSON.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "dataflow/plan.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "serve/frontdoor.hpp"
#include "sched/cluster.hpp"
#include "sched/engine.hpp"
#include "sched/policies.hpp"
#include "sim/simulator.hpp"

namespace rb {
namespace {

/// (phase, category, name, id, sim time) — everything about a recorded event
/// except the wall clock, which legitimately differs between runs.
using SpanKey =
    std::tuple<char, std::string, std::string, std::uint64_t, std::int64_t>;

struct ChaosRunResult {
  std::vector<SpanKey> spans;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_failed = 0;
  std::uint64_t flows_rerouted = 0;
  std::uint64_t component_failures = 0;
  std::uint64_t component_repairs = 0;
  std::string chrome_json;
};

/// One traced chaos shuffle on a fat tree with a seeded fault schedule.
/// Enables obs + tracing for the duration and restores the defaults.
ChaosRunResult run_traced_chaos(std::uint64_t seed) {
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  obs::set_enabled(true);

  ChaosRunResult out;
  {
    auto topo = net::make_fat_tree(4);
    sim::Simulator sim;
    net::Router router{topo};
    net::FlowSimulator fabric{sim, topo, router};

    faults::FailureRates rates;
    rates.link_mtbf_s = 2.0;
    rates.link_mttr_s = 0.3;
    rates.switch_mtbf_s = 5.0;
    rates.switch_mttr_s = 0.5;
    const auto plan = faults::make_random_fault_plan(
        topo, rates, 20 * sim::kSecond, seed);
    faults::FaultInjector injector{sim, topo, plan};
    injector.attach(fabric);
    injector.arm();

    const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
    for (const auto src : hosts) {
      for (const auto dst : hosts) {
        if (src == dst) continue;
        fabric.start_flow(src, dst, 8 * sim::kMiB);
      }
    }
    sim.run();

    out.flows_started = fabric.started_flows();
    out.flows_completed = fabric.completed_flows();
    out.flows_failed = fabric.failed_flows();
    out.flows_rerouted = fabric.rerouted_flows();
    out.component_failures = injector.component_failures();
    out.component_repairs = injector.component_repairs();
  }

  for (const auto& e : recorder.events()) {
    out.spans.emplace_back(e.phase, e.category, e.name, e.id, e.ts_ps);
  }
  out.chrome_json = recorder.to_chrome_json();
  recorder.set_enabled(false);
  recorder.clear();
  obs::set_enabled(false);
  return out;
}

TEST(Observability, IdenticallySeededRunsProduceIdenticalSpanSequences) {
  const auto a = run_traced_chaos(0xC0FFEE);
  const auto b = run_traced_chaos(0xC0FFEE);
  ASSERT_FALSE(a.spans.empty());
  EXPECT_EQ(a.spans, b.spans);

  // A different seed must actually change the trace, or the test is vacuous.
  const auto c = run_traced_chaos(0xBEEF);
  EXPECT_NE(a.spans, c.spans);
}

TEST(Observability, FlowAndFaultSpansReconcileWithCounters) {
  const auto r = run_traced_chaos(0xC0FFEE);
  ASSERT_GT(r.flows_started, 0u);
  ASSERT_GT(r.component_failures, 0u);

  std::uint64_t flow_begins = 0, flow_ends = 0, reroutes = 0;
  std::uint64_t outage_begins = 0, outage_ends = 0;
  for (const auto& [phase, cat, name, id, ts] : r.spans) {
    if (cat == "net.flow" && phase == 'b') ++flow_begins;
    if (cat == "net.flow" && phase == 'e') ++flow_ends;
    if (cat == "net.flow" && phase == 'i' && name == "reroute") ++reroutes;
    if (cat == "faults" && phase == 'b') ++outage_begins;
    if (cat == "faults" && phase == 'e') ++outage_ends;
  }
  EXPECT_EQ(flow_begins, r.flows_started);
  // Every flow ends exactly once (completed or failed; none were cancelled).
  EXPECT_EQ(flow_ends, r.flows_completed + r.flows_failed);
  EXPECT_EQ(reroutes, r.flows_rerouted);
  EXPECT_EQ(outage_begins, r.component_failures);
  EXPECT_EQ(outage_ends, r.component_repairs);
}

TEST(Observability, ChromeJsonParsesWithMonotoneTimestamps) {
  const auto r = run_traced_chaos(0xC0FFEE);
  const obs::JsonValue doc = obs::json_parse(r.chrome_json);
  ASSERT_TRUE(doc.is_object());
  const auto& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());
  ASSERT_GT(evs.array.size(), r.spans.size());  // + thread_name metadata

  double last_ts = -1.0;
  bool saw_flow = false, saw_fault = false;
  for (const auto& e : evs.array) {
    if (e.at("ph").string == "M") continue;
    const double ts = e.at("ts").number;
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (e.at("cat").string == "net.flow") saw_flow = true;
    if (e.at("cat").string == "faults") saw_fault = true;
  }
  EXPECT_TRUE(saw_flow);
  EXPECT_TRUE(saw_fault);
}

TEST(Observability, SchedulerSpansCoverEveryAttempt) {
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  obs::set_enabled(true);

  const auto cluster = sched::make_cpu_cluster(4, 2);
  std::vector<sched::JobArrival> jobs;
  jobs.push_back({dataflow::make_wordcount_job(sim::kGiB, 8), 0});
  jobs.push_back({dataflow::make_join_job(sim::kGiB, sim::kGiB / 2, 4),
                  sim::kSecond / 4});
  const auto plan = faults::make_random_machine_plan(
      4, 4.0, 0.5, 60 * sim::kSecond, 0xFA57);
  sched::FifoPolicy policy;
  sched::EngineParams params;
  params.fault_plan = &plan;
  params.max_attempts = 6;
  const auto result = sched::run_jobs(cluster, std::move(jobs), policy, params);

  std::uint64_t task_begins = 0, task_ends = 0, job_begins = 0, job_ends = 0;
  for (const auto& e : recorder.events()) {
    if (e.category == "sched.task" && e.phase == 'b') ++task_begins;
    if (e.category == "sched.task" && e.phase == 'e') ++task_ends;
    if (e.category == "sched.job" && e.phase == 'b') ++job_begins;
    if (e.category == "sched.job" && e.phase == 'e') ++job_ends;
  }
  recorder.set_enabled(false);
  recorder.clear();
  obs::set_enabled(false);

  // Every dispatched attempt opens a span; completed + killed attempts
  // close one each.
  EXPECT_EQ(task_begins, result.tasks_dispatched + result.tasks_retried);
  EXPECT_EQ(task_ends, result.tasks_run + result.tasks_killed_by_failure);
  EXPECT_EQ(job_begins, 2u);
  EXPECT_EQ(job_ends, 2u);
}

TEST(Observability, RegistryCountersMirrorFabricState) {
  // reset_for_test() zeroes the global registry in place, so the cached
  // metric pointers inside the fabric stay valid and this test needs no
  // before/after deltas to isolate itself from earlier traced runs.
  auto& reg = obs::Registry::global();
  reg.reset_for_test();

  const auto r = run_traced_chaos(0xC0FFEE);

  EXPECT_EQ(reg.counter("net.flows_started").value(), r.flows_started);
  EXPECT_EQ(reg.counter("net.flows_completed").value(), r.flows_completed);
  EXPECT_EQ(reg.counter("net.flows_failed").value(), r.flows_failed);
}

/// One causally-traced serving run: a small replicated front door under the
/// global RequestTracer with windowed rollups + burn-rate alerting attached.
struct CausalRunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::size_t finished_traces = 0;
  /// (trace_id, latency_ps, span count) per retained exemplar, slowest first.
  std::vector<std::tuple<std::uint64_t, std::int64_t, std::size_t>> exemplars;
  /// (band count, queue, service, network, backoff, hedge, other) per band.
  std::vector<std::tuple<std::uint64_t, double, double, double, double,
                         double, double>>
      bands;
  /// (fired_at, cleared_at) per burn-rate alert.
  std::vector<std::pair<std::int64_t, std::int64_t>> alert_times;
  double rollup_completed = 0.0;
  bool trees_well_formed = true;
  bool paths_add_up = true;
};

CausalRunResult run_traced_serving() {
  auto& tracer = obs::RequestTracer::global();
  tracer.clear();
  obs::ExemplarParams ep;
  ep.max_exemplars = 16;
  tracer.set_params(ep);
  tracer.set_enabled(true);

  serve::FrontDoorParams params;
  params.replication = 3;
  params.key_universe = 2'000;
  params.horizon = 100 * sim::kMillisecond;
  params.offered_qps = 4'000.0;
  params.seed = 0xBEEF;
  params.replica.device = node::find_device(node::DeviceKind::kCpu);
  params.replica.batch_overhead = sim::kMillisecond;
  params.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  params.replica.queue_limit = 16;
  params.replica.batch_max = 8;

  net::Topology topo = net::make_leaf_spine(2, 2, 2);  // 4 hosts
  sim::Simulator sim;
  net::Router router{topo};
  serve::FrontDoor door{sim, topo, router, params};

  obs::Rollup rollup{5 * sim::kMillisecond};
  obs::AlertParams ap;
  ap.objective = 0.99;
  ap.window = 5 * sim::kMillisecond;
  ap.min_events = 10;
  ap.rules = {obs::BurnRateRule{"page", 5.0, 2, 8}};
  obs::AlertEngine alerts{ap};
  door.slo().attach_telemetry(&rollup, &alerts, /*slo_latency_s=*/0.020);

  door.preload();
  door.start();
  sim.run();

  CausalRunResult out;
  out.issued = door.slo().issued();
  out.completed = door.slo().completed();
  out.finished_traces = tracer.finished();
  for (const obs::ExemplarTrace& ex : tracer.exemplars()) {
    out.exemplars.emplace_back(ex.trace_id, ex.finish_ps - ex.start_ps,
                               ex.spans.size());
    // Tree integrity: [0] is the root; every parent_id names a span in the
    // same tree; no span outlives the trace.
    std::set<std::uint64_t> ids;
    for (const obs::CausalSpan& s : ex.spans) ids.insert(s.span_id);
    if (ex.spans.empty() || ex.spans[0].parent_id != 0) {
      out.trees_well_formed = false;
    }
    for (const obs::CausalSpan& s : ex.spans) {
      if (s.parent_id != 0 && ids.count(s.parent_id) == 0) {
        out.trees_well_formed = false;
      }
      if (s.end_ps < s.start_ps || s.end_ps > ex.finish_ps) {
        out.trees_well_formed = false;
      }
    }
    // The decomposition is exhaustive: segments sum to the total.
    const obs::CriticalPath& p = ex.path;
    if (p.queue_ps + p.service_ps + p.network_ps + p.backoff_ps +
            p.hedge_wait_ps + p.other_ps !=
        p.total_ps) {
      out.paths_add_up = false;
    }
  }
  for (const obs::BandDecomposition& b : tracer.band_summary()) {
    out.bands.emplace_back(b.count, b.queue_share, b.service_share,
                           b.network_share, b.backoff_share,
                           b.hedge_wait_share, b.other_share);
  }
  for (const obs::Alert& a : alerts.alerts(params.horizon)) {
    out.alert_times.emplace_back(a.fired_at, a.cleared_at);
  }
  if (const obs::WindowedSeries* s = rollup.find("serve.completed")) {
    for (const obs::WindowStats& w : s->windows()) {
      out.rollup_completed += w.sum;
    }
  }
  tracer.set_enabled(false);
  tracer.clear();
  return out;
}

TEST(Observability, CausalServingTelemetryIsDeterministicAndReconciles) {
  const CausalRunResult a = run_traced_serving();
  ASSERT_GT(a.issued, 0u);
  // Every issued request finished exactly one trace.
  EXPECT_EQ(a.finished_traces, a.issued);
  ASSERT_FALSE(a.exemplars.empty());
  EXPECT_TRUE(a.trees_well_formed);
  EXPECT_TRUE(a.paths_add_up);
  // The windowed rollup accounts for every completed request.
  EXPECT_DOUBLE_EQ(a.rollup_completed, static_cast<double>(a.completed));
  // Band counts cover every finished trace.
  std::uint64_t band_total = 0;
  for (const auto& b : a.bands) band_total += std::get<0>(b);
  EXPECT_EQ(band_total, a.finished_traces);

  // Identically-seeded runs replay the full causal telemetry bit-identically
  // (latencies, retained trees, band decomposition, alert timeline).
  const CausalRunResult b = run_traced_serving();
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.exemplars, b.exemplars);
  EXPECT_EQ(a.bands, b.bands);
  EXPECT_EQ(a.alert_times, b.alert_times);
}

/// FNV-1a over a canonical text rendering. Doubles are rendered as hex
/// floats so the digest pins every bit, not a rounded decimal.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  }
  void i(std::int64_t v) { bytes(std::to_string(v)); }
  void u(std::uint64_t v) { bytes(std::to_string(v)); }
  void d(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    bytes(buf);
  }
  void path(const obs::CriticalPath& p) {
    i(p.total_ps);
    i(p.queue_ps);
    i(p.service_ps);
    i(p.network_ps);
    i(p.backoff_ps);
    i(p.hedge_wait_ps);
    i(p.other_ps);
  }
};

struct GrayTelemetry {
  std::uint64_t digest = 0;
  std::size_t exemplars = 0;
  std::size_t hedge_spans = 0;
  std::size_t failed_exemplars = 0;
  std::size_t alerts = 0;
};

/// A seeded gray-failure FrontDoor (one replica host slowed 4x for the
/// middle third, hedging and attempt timeouts on) with the causal tracer,
/// a Rollup and an AlertEngine attached. Returns a digest of everything
/// the telemetry reports: the band summary, every exemplar tree, the rollup
/// JSON and the alert timeline.
GrayTelemetry gray_failure_telemetry() {
  auto& tracer = obs::RequestTracer::global();
  tracer.clear();
  obs::ExemplarParams ep;
  ep.max_exemplars = 256;
  ep.latency_threshold_s = 0.015;
  tracer.set_params(ep);
  tracer.set_enabled(true);

  serve::FrontDoorParams params;
  params.replicas = 6;
  params.replication = 3;
  params.key_universe = 2'000;
  params.horizon = 150 * sim::kMillisecond;
  params.max_attempts = 4;
  params.seed = 0x5EED;
  params.replica.device = node::find_device(node::DeviceKind::kCpu);
  params.replica.batch_overhead = 500 * sim::kMicrosecond;
  params.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  params.replica.queue_limit = 64;
  params.replica.batch_max = 8;
  params.offered_qps =
      0.5 * serve::estimated_capacity_qps(params, params.replicas);
  params.resilience.request_timeout = 40 * sim::kMillisecond;
  params.resilience.attempt_timeout = 6 * sim::kMillisecond;
  params.resilience.budget.enabled = true;
  params.resilience.budget.ratio = 0.1;
  params.resilience.budget.burst = 50.0;
  params.resilience.hedge.enabled = true;
  params.resilience.hedge.quantile = 95.0;
  params.resilience.hedge.min_delay = 3 * sim::kMillisecond;
  params.resilience.hedge.window = 256;
  params.resilience.hedge.min_samples = 30;

  net::Topology topo = net::make_fat_tree(4);
  sim::Simulator sim;
  net::Router router{topo};
  serve::FrontDoor door{sim, topo, router, params};

  obs::Rollup rollup{5 * sim::kMillisecond};
  obs::AlertParams ap;
  ap.objective = 0.99;
  ap.window = 5 * sim::kMillisecond;
  ap.min_events = 10;
  ap.rules = {obs::BurnRateRule{"page", 5.0, 2, 8}};
  obs::AlertEngine alerts{ap};
  door.slo().attach_telemetry(&rollup, &alerts, /*slo_latency_s=*/0.015);

  door.preload();
  faults::FaultPlan plan;
  plan.add_node_degrade(door.replica_hosts()[1], params.horizon / 3,
                        params.horizon / 3, 4.0);
  faults::FaultInjector injector{sim, topo, plan};
  injector.on_event(
      [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
  injector.arm();
  door.start();
  sim.run();

  GrayTelemetry out;
  Fnv f;
  f.u(door.slo().issued());
  f.u(tracer.finished());
  for (const obs::BandDecomposition& b : tracer.band_summary()) {
    f.bytes(b.band);
    f.d(b.lo_pct);
    f.d(b.hi_pct);
    f.u(b.count);
    f.d(b.mean_latency_s);
    f.d(b.queue_share);
    f.d(b.service_share);
    f.d(b.network_share);
    f.d(b.backoff_share);
    f.d(b.hedge_wait_share);
    f.d(b.other_share);
  }
  for (const obs::ExemplarTrace& ex : tracer.exemplars()) {
    ++out.exemplars;
    if (ex.outcome != obs::TraceOutcome::kCompleted) ++out.failed_exemplars;
    f.u(ex.trace_id);
    f.bytes(ex.name);
    f.i(ex.start_ps);
    f.i(ex.finish_ps);
    f.bytes(obs::to_string(ex.outcome));
    f.path(ex.path);
    f.u(ex.spans.size());
    for (const obs::CausalSpan& s : ex.spans) {
      f.u(s.span_id);
      f.u(s.parent_id);
      f.bytes(obs::to_string(s.segment));
      f.bytes(s.name);
      f.i(s.start_ps);
      f.i(s.end_ps);
      f.i(s.ref);
      f.u(s.won ? 1 : 0);
      if (s.segment == obs::Segment::kHedgeWait) ++out.hedge_spans;
    }
  }
  f.bytes(rollup.to_json());
  for (const obs::Alert& a : alerts.alerts(params.horizon)) {
    ++out.alerts;
    f.bytes(a.rule);
    f.i(a.fired_at);
    f.i(a.cleared_at);
    f.d(a.burn_short);
    f.d(a.burn_long);
  }
  tracer.set_enabled(false);
  tracer.set_params(obs::ExemplarParams{});
  tracer.clear();
  out.digest = f.h;
  return out;
}

// Golden digest of the full causal-telemetry output of one seeded gray
// failure. Any change to span or trace id assignment, exemplar retention,
// the critical-path decomposition, band_summary, rollup JSON or the alert
// timeline moves it; a pure performance change to the tracer or the
// rollups must leave it exactly where it is.
TEST(Observability, GrayFailureTelemetryMatchesGoldenDigest) {
  const GrayTelemetry t = gray_failure_telemetry();
  // The run must exercise what the digest is meant to pin: a full exemplar
  // reservoir, hedged trees, failed trees and at least one alert.
  EXPECT_EQ(t.exemplars, 256u);
  EXPECT_GT(t.hedge_spans, 0u);
  EXPECT_GT(t.failed_exemplars, 0u);
  EXPECT_GT(t.alerts, 0u);
  EXPECT_EQ(t.digest, 0x58b4c81caf6ef7b2ull);
}

}  // namespace
}  // namespace rb
