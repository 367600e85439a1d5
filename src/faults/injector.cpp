#include "faults/injector.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace rb::faults {

namespace {

const obs::Logger& faults_log() {
  static const obs::Logger logger{"faults"};
  return logger;
}

const char* target_name(FaultTarget t) {
  switch (t) {
    case FaultTarget::kLink: return "link";
    case FaultTarget::kNode: return "node";
    case FaultTarget::kMachine: return "machine";
  }
  return "?";
}

/// Async-span id for one component's outage: target kind and fault mode in
/// the top bits so link 3, node 3, and a gray node 3 never collide.
std::uint64_t outage_span_id(const FaultEvent& e) {
  return (static_cast<std::uint64_t>(e.mode) << 60) |
         (static_cast<std::uint64_t>(e.target) << 56) | e.id;
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, net::Topology& topo,
                             FaultPlan plan)
    : sim_{&sim}, topo_{&topo}, plan_{std::move(plan)} {}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  // A network injector owns no machines, so validate() with machines = 0
  // also rejects kMachine events (those belong to sched::run_jobs).
  plan_.validate(*topo_);
  for (const FaultEvent& event : plan_.events()) {
    sim_->schedule_at(event.at, [this, event] { apply(event); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  const bool gray = event.mode == FaultMode::kDegrade;
  switch (event.target) {
    case FaultTarget::kLink:
      if (gray) {
        topo_->set_link_slowdown(event.id, event.up ? 1.0 : event.factor);
      } else {
        topo_->set_link_up(event.id, event.up);
      }
      break;
    case FaultTarget::kNode:
      if (gray) {
        topo_->set_node_slowdown(event.id, event.up ? 1.0 : event.factor);
      } else {
        topo_->set_node_up(event.id, event.up);
      }
      break;
    case FaultTarget::kMachine:
      break;  // unreachable: rejected by validate() in arm()
  }
  ++applied_;
  (event.up ? repairs_ : failures_)++;
  if (obs::enabled()) {
    // An outage is an async span from the failure to the matching repair.
    auto& tr = obs::TraceRecorder::global();
    const std::vector<obs::TraceArg> args{
        obs::trace_arg("target", target_name(event.target)),
        obs::trace_arg("id", static_cast<std::uint64_t>(event.id))};
    if (event.up) {
      tr.async_end("faults", "outage", outage_span_id(event), sim_->now(),
                   args);
    } else {
      tr.async_begin("faults", "outage", outage_span_id(event), sim_->now(),
                     args);
    }
  }
  if (event.mode == FaultMode::kDegrade) {
    faults_log().info() << target_name(event.target) << ' ' << event.id << ' '
                        << (event.up ? "recovered"
                                     : "DEGRADED x" +
                                           std::to_string(event.factor))
                        << " at t=" << sim::to_seconds(event.at) << " s";
  } else {
    faults_log().info() << target_name(event.target) << ' ' << event.id << ' '
                        << (event.up ? "repaired" : "FAILED") << " at t="
                        << sim::to_seconds(event.at) << " s";
  }
  if (fabric_ != nullptr) fabric_->handle_topology_change();
  if (observer_) observer_(event);
}

}  // namespace rb::faults
