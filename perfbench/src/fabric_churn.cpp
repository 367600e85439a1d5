// fabric_churn: the max-min fabric solver under flow churn and core-link
// failures.
//
// FlowSimulator in kMaxMinFair mode on fat_tree(8) holds kFlows concurrent
// uniform-random flows as a closed loop in simulated time: every completion
// starts the next flow. A seeded plan takes core links down and repairs
// them (never more than two at once, so no pair of hosts is ever cut off),
// applied through Topology::set_link_up plus handle_topology_change(). An
// op is a fixed number of Simulator::step() calls.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "accel/simd/simd.hpp"
#include "common.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace pb {

namespace {

using namespace rb;

constexpr std::size_t kFlows = 1000;
constexpr int kStepsPerOp = 16;
// The flows all start at t=0, so the first few hundred steps are a transient
// costing about twice the steady state; set-up steps through it.
constexpr int kWarmupSteps = 400;
constexpr int kOps = 100;
constexpr sim::SimTime kFaultPeriod = 200 * sim::kMicrosecond;
constexpr std::size_t kMaxDown = 2;

/// Closed-loop flow population plus the core-link fault plan.
class Churn {
 public:
  Churn(sim::Simulator& sim, net::Topology& topo, net::FlowSimulator& fabric,
        SpanLog& log, std::uint64_t seed)
      : sim_{sim}, topo_{topo}, fabric_{fabric}, log_{log}, rng_{seed},
        hosts_{topo.nodes_of_kind(net::NodeKind::kHost)} {
    for (net::LinkId l = 0; l < topo.link_count(); ++l) {
      const net::Link& link = topo.link(l);
      if (topo.node(link.a).kind == net::NodeKind::kCoreSwitch ||
          topo.node(link.b).kind == net::NodeKind::kCoreSwitch) {
        core_links_.push_back(l);
      }
    }
  }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  void start_flow() {
    const std::size_t n = hosts_.size();
    const std::size_t src = rng_.uniform_index(n);
    std::size_t dst = rng_.uniform_index(n - 1);
    if (dst >= src) ++dst;
    // 64 KiB .. 2 MiB, log-uniform-ish: most flows short, a heavy tail.
    const auto size = static_cast<sim::Bytes>(65'536.0 * std::pow(32.0, rng_.uniform()));
    Scope s{log_, "net.start_flow"};
    fabric_.start_flow(hosts_[src], hosts_[dst], size,
                       [this](const net::FlowRecord& r) { on_done(r); });
  }

  void arm_faults() { sim_.schedule_in(kFaultPeriod, [this] { fault_tick(); }); }

  const std::vector<std::int64_t>& fcts() const noexcept { return fcts_; }
  std::uint64_t fault_events() const noexcept { return fault_events_; }

 private:
  void on_done(const net::FlowRecord& r) {
    if (r.outcome == net::FlowOutcome::kCompleted) fcts_.push_back(r.finish - r.start);
    start_flow();
  }

  void fault_tick() {
    const bool repair =
        down_.size() == kMaxDown || (!down_.empty() && rng_.uniform() < 0.5);
    net::LinkId link = 0;
    if (repair) {
      link = down_.front();
      down_.pop_front();
    } else {
      do {
        link = core_links_[rng_.uniform_index(core_links_.size())];
      } while (std::find(down_.begin(), down_.end(), link) != down_.end());
      down_.push_back(link);
    }
    {
      Scope s{log_, "net.set_link_up"};
      topo_.set_link_up(link, repair);
    }
    {
      Scope s{log_, "net.handle_topology_change"};
      fabric_.handle_topology_change();
    }
    ++fault_events_;
    arm_faults();
  }

  sim::Simulator& sim_;
  net::Topology& topo_;
  net::FlowSimulator& fabric_;
  SpanLog& log_;
  sim::Rng rng_;
  std::vector<net::NodeId> hosts_;
  std::vector<net::LinkId> core_links_;
  std::deque<net::LinkId> down_;
  std::vector<std::int64_t> fcts_;
  std::uint64_t fault_events_ = 0;
};

std::uint64_t flow_events(const net::FlowSimulator& f) {
  return f.started_flows() + f.completed_flows() + f.rerouted_flows() +
         f.failed_flows();
}

}  // namespace

RepResult run_fabric_churn(const Options& opt, SpanLog& log) {
  RepResult out;
  const std::int64_t s0 = now_ns();
  (void)accel::simd::active_isa();
  net::Topology topo = net::make_fat_tree(8);
  const net::Router router{topo};
  const std::int64_t s1 = now_ns();

  sim::Simulator sim;
  net::FlowSimulator fabric{sim, topo, router, net::RateAllocation::kMaxMinFair};
  Churn churn{sim, topo, fabric, log, opt.seed};
  for (std::size_t i = 0; i < kFlows; ++i) churn.start_flow();
  churn.arm_faults();
  for (int i = 0; i < kWarmupSteps; ++i) sim.step();
  const std::int64_t s2 = now_ns();
  out.setup_s = static_cast<double>(s2 - s0) * 1e-9;
  out.setup_parts = {{"setup.topology_s", static_cast<double>(s1 - s0) * 1e-9},
                     {"setup.preload_s", static_cast<double>(s2 - s1) * 1e-9},
                     {"setup.tables_s", 0.0}};

  const std::uint64_t events0 = flow_events(fabric);
  const net::AllocatorStats a0 = fabric.allocator_stats();
  std::uint64_t steps = 0;
  OpTimer timer{out, log};
  for (int op = 0; op < kOps; ++op) {
    timer.op([&] {
      for (int i = 0; i < kStepsPerOp; ++i) {
        Scope s{log, "sim.step"};
        steps += sim.step() ? 1 : 0;
      }
    });
  }
  const auto phase = timer.finish();

  const net::AllocatorStats& a = fabric.allocator_stats();
  out.units = static_cast<double>(flow_events(fabric) - events0);
  out.check(steps == static_cast<std::uint64_t>(kOps) * kStepsPerOp,
            "event queue ran dry");
  out.check(fabric.active_flows() == kFlows, "flow population not conserved");
  out.check(fabric.failed_flows() == 0, "a flow failed: the fault plan cut a path");
  out.check(fabric.started_flows() ==
                fabric.completed_flows() + fabric.failed_flows() + fabric.active_flows(),
            "flow ledger does not balance");

  std::vector<std::int64_t> fcts = churn.fcts();
  std::sort(fcts.begin(), fcts.end());
  Digest d;
  for (const std::int64_t f : fcts) d.add("fct", f);
  d.add("started", fabric.started_flows());
  d.add("completed", fabric.completed_flows());
  d.add("failed", fabric.failed_flows());
  d.add("rerouted", fabric.rerouted_flows());
  d.add("reallocations", a.reallocations);
  d.add("full_solves", a.full_solves);
  d.add("incremental_solves", a.incremental_solves);
  d.add("incremental_fallbacks", a.incremental_fallbacks);
  d.add("solve_rounds", a.solve_rounds);
  d.add("coalesced_events", a.coalesced_events);
  d.add("now", sim.now());
  out.digest = d.hex();

  if (!opt.traced) return out;

  attribute(log, phase, out);
  const double reallocs = static_cast<double>(a.reallocations - a0.reallocations);
  out.layer("sim.events", static_cast<double>(steps));
  out.layer("sim.ns_per_event",
            steps == 0 ? 0.0 : out.wall_s * 1e9 / static_cast<double>(steps));
  out.layer("net.reroute_us_p50",
            median(log.durations_ns("net.handle_topology_change", phase)) * 1e-3);
  out.layer("net.solver.reallocations", reallocs);
  out.layer("net.solver.solve_rounds",
            static_cast<double>(a.solve_rounds - a0.solve_rounds));
  out.layer("net.solver.coalesced_events",
            static_cast<double>(a.coalesced_events - a0.coalesced_events));
  out.layer("net.solver.us_per_realloc", reallocs > 0 ? out.wall_s * 1e6 / reallocs : 0.0);
  out.layer("net.start_flow_us_p50", median(log.durations_ns("net.start_flow", phase)) * 1e-3);
  out.layer("net.flows_rerouted", static_cast<double>(fabric.rerouted_flows()));
  out.layer("net.flows_failed", static_cast<double>(fabric.failed_flows()));
  return out;
}

}  // namespace pb
