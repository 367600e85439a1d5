// serve_gray: the serving plane under a gray failure.
//
// FrontDoor on fat_tree(4): 8 LsmStore-backed replicas, R=3, Zipf 0.99 keys,
// 95% gets, an open-loop client population at half the fleet's capacity.
// One replica host is slowed 8x for the middle quarter of the horizon.
// Deadlines, attempt timeouts, the retry budget and hedging are on, and the
// RequestTracer's exemplar sampler, a Rollup and a burn-rate AlertEngine
// are attached as in bench_ext_resilience. On the host side the simulator
// runs closed-loop: an op is one fixed slice of simulated time
// (Simulator::run_until).

#include <cstdint>

#include "accel/simd/simd.hpp"
#include "common.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/context.hpp"
#include "obs/rollup.hpp"
#include "serve/frontdoor.hpp"
#include "sim/simulator.hpp"

namespace pb {

namespace {

using namespace rb;

constexpr sim::SimTime kSlice = 2 * sim::kMillisecond;
constexpr int kSlices = 600;  // horizon = kSlices x kSlice
constexpr double kSloLatencyS = 0.030;
constexpr sim::SimTime kRollupWindow = 5 * sim::kMillisecond;

serve::FrontDoorParams params_for(std::uint64_t seed) {
  serve::FrontDoorParams p;
  p.replicas = 8;
  p.replication = 3;
  p.key_universe = 4'000;  // ~1.5k keys per replica: memtable-resident reads
  p.zipf_s = 0.99;
  p.read_fraction = 0.95;
  p.value_bytes = 256;
  p.horizon = kSlices * kSlice;
  p.max_attempts = 4;
  p.seed = seed;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = 500 * sim::kMicrosecond;
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 64;
  p.replica.batch_max = 8;
  p.offered_qps = 0.5 * serve::estimated_capacity_qps(p, p.replicas);
  p.resilience.request_timeout = 60 * sim::kMillisecond;
  p.resilience.attempt_timeout = 6 * sim::kMillisecond;
  p.resilience.budget.enabled = true;
  p.resilience.budget.ratio = 0.1;
  p.resilience.budget.burst = 50.0;
  p.resilience.hedge.enabled = true;
  p.resilience.hedge.quantile = 95.0;
  p.resilience.hedge.min_delay = 3 * sim::kMillisecond;
  p.resilience.hedge.window = 512;
  p.resilience.hedge.min_samples = 50;
  return p;
}

obs::AlertParams alert_params() {
  obs::AlertParams ap;
  ap.objective = 0.999;
  ap.window = kRollupWindow;
  ap.min_events = 40;
  ap.rules = {obs::BurnRateRule{"page", 10.0, 2, 12}};
  return ap;
}

}  // namespace

RepResult run_serve_gray(const Options& opt, SpanLog& log) {
  RepResult out;
  const std::int64_t s0 = now_ns();
  (void)accel::simd::active_isa();  // one-time dispatch resolve

  obs::RequestTracer& tracer = obs::RequestTracer::global();
  if (opt.telemetry) {
    obs::ExemplarParams ep;
    ep.max_exemplars = 64;
    ep.latency_threshold_s = kSloLatencyS;
    tracer.set_params(ep);
    tracer.set_enabled(true);
  }

  const std::int64_t s1 = now_ns();
  net::Topology topo = net::make_fat_tree(4);
  const net::Router router{topo};
  const std::int64_t s2 = now_ns();

  const serve::FrontDoorParams params = params_for(opt.seed);
  sim::Simulator sim;
  serve::FrontDoor door{sim, topo, router, params};
  obs::Rollup rollup{kRollupWindow};
  obs::AlertEngine alerts{alert_params()};
  if (opt.telemetry) door.slo().attach_telemetry(&rollup, &alerts, kSloLatencyS);
  door.preload();
  const std::int64_t s3 = now_ns();

  // Gray failure: replica 1's host 8x slower for the middle quarter.
  faults::FaultPlan plan;
  plan.add_node_degrade(door.replica_hosts()[1], params.horizon * 3 / 8,
                        params.horizon / 4, 8.0);
  faults::FaultInjector injector{sim, topo, plan};
  injector.on_event([&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
  injector.arm();
  door.start();
  out.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
  out.setup_parts = {{"setup.topology_s", static_cast<double>(s2 - s1) * 1e-9},
                     {"setup.preload_s", static_cast<double>(s3 - s2) * 1e-9},
                     {"setup.tables_s", 0.0}};

  // Timed phase: fixed slices of simulated time until every request of the
  // horizon reached a terminal state.
  std::uint64_t events = 0;
  sim::SimTime until = 0;
  OpTimer timer{out, log};
  while (until < params.horizon || sim.pending_events() > 0) {
    until += kSlice;
    timer.op([&] {
      Scope s{log, "sim.run_until"};
      events += sim.run_until(until);
    });
  }
  const auto phase = timer.finish();

  const serve::SloAccountant& slo = door.slo();
  const serve::ResilienceStats rs = door.resilience_stats();
  out.units = static_cast<double>(slo.issued());
  out.check(slo.ledger_ok(), "SLO ledger does not balance");
  out.check(slo.issued() > 0 && !slo.latency_seconds().empty(),
            "no request completed");
  const double p50 = slo.latency_seconds().empty() ? 0.0 : slo.latency_seconds().p50();
  const double p99 = slo.latency_seconds().empty() ? 0.0 : slo.latency_seconds().p99();
  const double p999 = slo.latency_seconds().empty() ? 0.0 : slo.latency_seconds().p999();

  Digest d;
  d.add("issued", slo.issued());
  d.add("completed", slo.completed());
  d.add("rejected", slo.rejected());
  d.add("failed", slo.failed());
  d.add("retries", slo.retries());
  d.add("p50", p50);
  d.add("p99", p99);
  d.add("p999", p999);
  d.add("retries_budgeted", rs.retries_budgeted);
  d.add("deadline_drops", rs.deadline_drops);
  d.add("deadline_queue_drops", rs.deadline_queue_drops);
  d.add("attempt_timeouts", rs.attempt_timeouts);
  d.add("hedges_issued", rs.hedges_issued);
  d.add("hedges_won", rs.hedges_won);
  d.add("breaker_opens", rs.breaker_opens);
  d.add("breaker_denials", rs.breaker_denials);
  d.add("wasted_responses", rs.wasted_responses);
  out.digest = d.hex();

  if (!opt.traced) return out;

  attribute(log, phase, out);
  const double issued = static_cast<double>(slo.issued());
  const double attempts = issued + static_cast<double>(slo.retries()) +
                          static_cast<double>(rs.hedges_issued);
  out.layer("sim.events", static_cast<double>(events));
  out.layer("sim.ns_per_event",
            events == 0 ? 0.0 : out.wall_s * 1e9 / static_cast<double>(events));
  out.layer("serve.requests", issued);
  out.layer("serve.hedges_issued", static_cast<double>(rs.hedges_issued));
  out.layer("serve.wasted_responses", static_cast<double>(rs.wasted_responses));
  out.layer("serve.attempts_per_request", issued > 0 ? attempts / issued : 0.0);
  out.layer("serve.useful_ratio",
            attempts > 0 ? static_cast<double>(slo.completed()) / attempts : 0.0);
  out.layer("serve.ledger_ok", slo.ledger_ok() ? 1.0 : 0.0);
  out.layer("serve.host_us_per_request", issued > 0 ? out.wall_s * 1e6 / issued : 0.0);

  std::uint64_t gets = 0, probes = 0, skips = 0;
  for (std::size_t i = 0; i < door.replica_count(); ++i) {
    const storage::LsmStats& st = door.replica(i).store().stats();
    gets += st.gets;
    probes += st.sstable_probes;
    skips += st.bloom_skips;
  }
  out.layer("storage.gets", static_cast<double>(gets));
  out.layer("storage.sstable_probes_per_get",
            gets == 0 ? 0.0 : static_cast<double>(probes) / static_cast<double>(gets));
  out.layer("storage.bloom_skip_ratio",
            probes + skips == 0
                ? 0.0
                : static_cast<double>(skips) / static_cast<double>(probes + skips));
  out.layer("obs.exemplars",
            opt.telemetry ? static_cast<double>(tracer.exemplars().size()) : 0.0);
  return out;
}

}  // namespace pb
