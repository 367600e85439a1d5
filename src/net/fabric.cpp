#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace rb::net {

namespace {
// A flow is considered drained when fewer than this many bits remain;
// guards against floating-point residue never reaching exactly zero.
constexpr double kResidualBits = 1e-6;

// Relative tolerance when matching a link's fair share against the round's
// bottleneck share during progressive filling.
constexpr double kShareSlack = 1e-12;

// kMaxMinIncremental falls back to a full solve when the dirty component
// exceeds this fraction of the active flows (the closure walk aborts early,
// so an oversized component never costs more than the full solve it turns
// into). Small components always go incremental (floor of 16 flows).
constexpr std::size_t kIncrementalFloor = 16;

const obs::Logger& net_log() {
  static const obs::Logger logger{"net"};
  return logger;
}

}  // namespace

FlowSimulator::FlowSimulator(sim::Simulator& sim, const Topology& topo,
                             const Router& router, RateAllocation allocation)
    : sim_{&sim}, topo_{&topo}, router_{&router}, allocation_{allocation} {
  ensure_dlinks();
}

FlowSimulator::~FlowSimulator() {
  completion_event_.cancel();
  realloc_event_.cancel();
}

// --- arena plumbing -------------------------------------------------------

void FlowSimulator::ensure_dlinks() {
  const std::size_t want = 2 * topo_->link_count();
  if (dlinks_.size() < want) dlinks_.resize(want);
}

std::uint32_t FlowSimulator::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ++active_count_;
  return idx;
}

void FlowSimulator::release_slot(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  id_to_slot_.erase(s.id);
  s.id = 0;
  s.on_complete = nullptr;
  s.causal = {};
  s.path.clear();  // keeps capacity for the next tenant
  s.next_free = free_head_;
  free_head_ = idx;
  --active_count_;
}

void FlowSimulator::link_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  for (std::uint32_t h = 0; h < s.path.size(); ++h) {
    DirLink& dl = dlinks_[s.path[h].dlink];
    s.path[h].pos = static_cast<std::uint32_t>(dl.flows.size());
    dl.flows.push_back(LinkEntry{idx, h});
  }
}

void FlowSimulator::unlink_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  for (const PathHop& hop : s.path) {
    DirLink& dl = dlinks_[hop.dlink];
    const LinkEntry moved = dl.flows.back();
    dl.flows[hop.pos] = moved;
    slots_[moved.slot].path[moved.hop].pos = hop.pos;
    dl.flows.pop_back();
  }
}

void FlowSimulator::mark_path_dirty(const std::vector<PathHop>& path) {
  if (allocation_ != RateAllocation::kMaxMinIncremental) return;
  for (const PathHop& hop : path) {
    DirLink& dl = dlinks_[hop.dlink];
    if (dl.dirty == dirty_epoch_) continue;
    dl.dirty = dirty_epoch_;
    dirty_links_.push_back(hop.dlink);
  }
}

void FlowSimulator::build_path(FlowId id, NodeId src, NodeId dst,
                               std::vector<PathHop>& path,
                               sim::SimTime& latency) const {
  path.clear();
  latency = 0;
  if (src == dst) return;
  const auto links = router_->path(src, dst, mix64(id));
  path.reserve(links.size());
  NodeId at = src;
  for (const LinkId link_id : links) {
    const Link& link = topo_->link(link_id);
    const std::uint32_t dir = (link.a == at) ? 0 : 1;
    path.push_back(PathHop{(static_cast<std::uint32_t>(link_id) << 1) | dir, 0});
    latency += link.latency;
    at = (link.a == at) ? link.b : link.a;
  }
}

// --- public API -----------------------------------------------------------

FlowId FlowSimulator::start_flow(NodeId src, NodeId dst, sim::Bytes size,
                                 FlowCallback on_complete,
                                 const obs::TraceContext& parent) {
  const FlowId id = next_id_++;
  sim::SimTime latency = 0;
  build_path(id, src, dst, path_scratch_, latency);  // throws NoRouteError
  ++started_;
  if (obs::enabled()) {
    obs::TraceRecorder::global().async_begin(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("src", static_cast<std::uint64_t>(src)),
         obs::trace_arg("dst", static_cast<std::uint64_t>(dst)),
         obs::trace_arg("bytes", static_cast<std::uint64_t>(size))});
  }
  // Causal propagation: the flow's lifetime becomes a network span of the
  // caller's request tree (annotated with the flow id for cross-reference).
  obs::TraceContext causal;
  {
    auto& tracer = obs::RequestTracer::global();
    if (tracer.enabled() && parent.active()) {
      causal.trace_id = parent.trace_id;
      causal.span_id =
          tracer.begin_span(parent, obs::Segment::kNetwork, "net.flow",
                            sim_->now(), static_cast<std::int64_t>(id));
    }
  }

  const double bits = static_cast<double>(size) * 8.0;
  if (bits <= kResidualBits || path_scratch_.empty()) {
    // Degenerate flow: completes after propagation only.
    FlowRecord record{id,
                      src,
                      dst,
                      size,
                      sim_->now(),
                      sim_->now() + latency,
                      FlowOutcome::kCompleted,
                      size};
    sim_->schedule_in(latency, [this, record, causal,
                                cb = std::move(on_complete)] {
      ++completed_;
      const double fct_s = sim::to_seconds(record.finish - record.start);
      fct_.add(fct_s);
      if (obs::enabled()) {
        obs::TraceRecorder::global().async_end(
            "net.flow", "flow", record.id, sim_->now(),
            {obs::trace_arg("outcome", "completed")});
      }
      if (causal.active()) {
        obs::RequestTracer::global().end_span(causal.trace_id, causal.span_id,
                                              sim_->now());
      }
      if (cb) cb(record);
    });
    return id;
  }

  advance_to_now();
  ensure_dlinks();
  const std::uint32_t idx = acquire_slot();
  FlowSlot& s = slots_[idx];
  s.src = src;
  s.dst = dst;
  s.size = size;
  s.remaining_bits = bits;
  s.rate = 0.0;
  s.start = sim_->now();
  s.latency = latency;
  s.id = id;
  s.path.swap(path_scratch_);
  s.on_complete = std::move(on_complete);
  s.causal = causal;
  id_to_slot_.emplace(id, idx);
  link_flow(idx);
  mark_path_dirty(s.path);
  request_realloc();
  return id;
}

bool FlowSimulator::cancel_flow(FlowId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  advance_to_now();
  const std::uint32_t idx = it->second;
  if (slots_[idx].causal.active()) {
    obs::RequestTracer::global().end_span(slots_[idx].causal.trace_id,
                                          slots_[idx].causal.span_id,
                                          sim_->now());
  }
  mark_path_dirty(slots_[idx].path);
  unlink_flow(idx);
  release_slot(idx);
  ++cancelled_;
  if (obs::enabled()) {
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "cancelled")});
  }
  request_realloc();
  return true;
}

bool FlowSimulator::path_is_live(const FlowSlot& flow) const {
  if (!topo_->node_up(flow.src) || !topo_->node_up(flow.dst)) return false;
  for (const PathHop& hop : flow.path) {
    if (!topo_->link_usable(static_cast<LinkId>(hop.dlink >> 1))) return false;
  }
  return true;
}

void FlowSimulator::handle_topology_change() {
  advance_to_now();
  ensure_dlinks();
  // Pass 1: classify every active flow against the new component state.
  std::vector<std::pair<FlowId, std::uint32_t>> broken;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0 && !path_is_live(slots_[i])) {
      broken.emplace_back(slots_[i].id, i);
    }
  }
  if (broken.empty()) {
    // Repairs can still open shorter paths for *new* flows; active flows
    // stay put (no flap-induced reshuffling) — nothing to do.
    return;
  }
  std::sort(broken.begin(), broken.end());  // deterministic order
  // Pass 2: reroute around the failure or fail the flow.
  for (const auto& [id, idx] : broken) {
    FlowSlot& s = slots_[idx];
    try {
      sim::SimTime latency = 0;
      build_path(id, s.src, s.dst, path_scratch_, latency);
      mark_path_dirty(s.path);
      unlink_flow(idx);
      s.path.swap(path_scratch_);
      s.latency = latency;
      link_flow(idx);
      mark_path_dirty(s.path);
      ++rerouted_;
      if (obs::enabled()) {
        obs::TraceRecorder::global().instant(
            "net.flow", "reroute", sim_->now(),
            {obs::trace_arg("flow", id)});
      }
      net_log().info() << "flow " << id << " rerouted around failure";
    } catch (const NoRouteError&) {
      fail_flow(idx);
    }
  }
  realloc_pending_ = true;
  flush_realloc();
}

double FlowSimulator::current_rate(FlowId id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end())
    throw std::invalid_argument{"FlowSimulator::current_rate: unknown flow"};
  // Settle any same-timestamp coalesced epoch so the caller never sees a
  // stale (or zero, for a just-started flow) rate.
  const_cast<FlowSimulator*>(this)->flush_realloc();
  return slots_[it->second].rate;
}

void FlowSimulator::advance_to_now() {
  const sim::SimTime now = sim_->now();
  const double elapsed = sim::to_seconds(now - last_advance_);
  if (elapsed > 0.0) {
    // Flat arena sweep: one contiguous pass, free slots skipped by the
    // id == 0 test.
    for (FlowSlot& s : slots_) {
      if (s.id == 0) continue;
      s.remaining_bits = std::max(0.0, s.remaining_bits - s.rate * elapsed);
    }
  }
  last_advance_ = now;
}

// --- coalesced reallocation ----------------------------------------------

void FlowSimulator::request_realloc() {
  if (realloc_pending_) {
    ++astats_.coalesced_events;
    return;
  }
  realloc_pending_ = true;
  // Zero-delay event: every arrival/departure landing on this timestamp
  // shares the single solve that runs when the event fires (or earlier, if
  // a synchronous query forces the flush).
  realloc_event_ = sim_->schedule_in(0, [this] { flush_realloc(); });
}

void FlowSimulator::flush_realloc() {
  if (!realloc_pending_) return;
  realloc_pending_ = false;
  realloc_event_.cancel();
  advance_to_now();
  solve();
  schedule_next_completion();
}

void FlowSimulator::solve() {
  ++astats_.reallocations;
  if (allocation_ == RateAllocation::kEqualSharePerLink) {
    solve_equal_share();
  } else if (allocation_ == RateAllocation::kMaxMinIncremental &&
             try_solve_incremental()) {
    // Component solve ran (or provably nothing needed re-solving).
  } else {
    subset_slots_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id != 0) subset_slots_.push_back(i);
    }
    solve_subset(subset_slots_);
    ++astats_.full_solves;
  }
  dirty_links_.clear();
  ++dirty_epoch_;
}

bool FlowSimulator::try_solve_incremental() {
  if (dirty_links_.empty()) return true;  // rates are already exact
  const std::size_t limit =
      std::max<std::size_t>(kIncrementalFloor, active_count_ / 2);
  // Closure walk over the flow/link bipartite graph: every flow on a dirty
  // link, every link on such a flow's path, transitively. Progressive
  // filling decomposes over connected components, so re-solving exactly
  // this closure (with fresh capacities) reproduces the full solve.
  ++visit_epoch_;
  bfs_stack_.assign(dirty_links_.begin(), dirty_links_.end());
  for (const std::uint32_t dlink : bfs_stack_) {
    dlinks_[dlink].visit = visit_epoch_;
  }
  subset_slots_.clear();
  while (!bfs_stack_.empty()) {
    const std::uint32_t dlink = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const LinkEntry& entry : dlinks_[dlink].flows) {
      FlowSlot& s = slots_[entry.slot];
      if (s.visit == visit_epoch_) continue;
      s.visit = visit_epoch_;
      subset_slots_.push_back(entry.slot);
      if (subset_slots_.size() > limit) {
        ++astats_.incremental_fallbacks;
        return false;  // oversized component: full solve is cheaper
      }
      for (const PathHop& hop : s.path) {
        DirLink& dl = dlinks_[hop.dlink];
        if (dl.visit != visit_epoch_) {
          dl.visit = visit_epoch_;
          bfs_stack_.push_back(hop.dlink);
        }
      }
    }
  }
  // An empty closure means the dirty links lost their last flows (pure
  // departures): no surviving flow shares a link with the change, so every
  // remaining rate is still the exact max-min allocation.
  if (!subset_slots_.empty()) solve_subset(subset_slots_);
  ++astats_.incremental_solves;
  return true;
}

void FlowSimulator::solve_subset(const std::vector<std::uint32_t>& subset) {
  if (subset.empty()) return;
  ++solve_epoch_;
  active_links_.clear();
  for (const std::uint32_t idx : subset) {
    FlowSlot& s = slots_[idx];
    s.frozen = false;
    for (const PathHop& hop : s.path) {
      DirLink& dl = dlinks_[hop.dlink];
      if (dl.inited != solve_epoch_) {
        dl.inited = solve_epoch_;
        dl.remaining_cap = topo_->link(static_cast<LinkId>(hop.dlink >> 1)).rate;
        dl.unfrozen = 0;
        active_links_.push_back(hop.dlink);
      }
      ++dl.unfrozen;
    }
  }
  // Max-min fair: progressive filling over directed link capacities. Each
  // round finds the bottleneck share, then freezes exactly the flows on
  // links at that share — only their membership lists are touched, so a
  // round costs O(live links + flows frozen × path), not O(all flows).
  std::size_t remaining = subset.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t live = 0;
    for (const std::uint32_t dlink : active_links_) {
      const DirLink& dl = dlinks_[dlink];
      if (dl.unfrozen == 0) continue;  // compact out saturated links
      active_links_[live++] = dlink;
      const double share = dl.remaining_cap / dl.unfrozen;
      if (share < best_share) best_share = share;
    }
    active_links_.resize(live);
    if (live == 0) break;  // defensive: every remaining flow has an empty path
    ++astats_.solve_rounds;

    const double threshold = best_share * (1 + kShareSlack);
    for (const std::uint32_t dlink : active_links_) {
      DirLink& dl = dlinks_[dlink];
      if (dl.unfrozen == 0) continue;
      if (dl.remaining_cap / dl.unfrozen > threshold) continue;
      // Freeze every unfrozen flow crossing this bottleneck at the share.
      for (std::size_t e = 0; e < dl.flows.size(); ++e) {
        FlowSlot& s = slots_[dl.flows[e].slot];
        if (s.frozen) continue;
        s.frozen = true;
        s.rate = best_share;
        --remaining;
        for (const PathHop& hop : s.path) {
          DirLink& on = dlinks_[hop.dlink];
          on.remaining_cap = std::max(0.0, on.remaining_cap - best_share);
          --on.unfrozen;
        }
      }
    }
  }
}

void FlowSimulator::solve_equal_share() {
  // Naive ablation baseline: every flow gets the minimum over its links of
  // capacity / flows-on-link, computed once without redistribution. The
  // per-link crossing count is just the membership list size.
  for (FlowSlot& s : slots_) {
    if (s.id == 0) continue;
    double rate = std::numeric_limits<double>::infinity();
    for (const PathHop& hop : s.path) {
      const DirLink& dl = dlinks_[hop.dlink];
      const double cap = topo_->link(static_cast<LinkId>(hop.dlink >> 1)).rate;
      rate = std::min(rate, cap / static_cast<double>(dl.flows.size()));
    }
    s.rate = rate;
  }
}

// --- completions ----------------------------------------------------------

void FlowSimulator::schedule_next_completion() {
  completion_event_.cancel();
  if (active_count_ == 0) return;
  double earliest_s = std::numeric_limits<double>::infinity();
  for (const FlowSlot& s : slots_) {
    if (s.id == 0 || s.rate <= 0.0) continue;
    earliest_s = std::min(earliest_s, s.remaining_bits / s.rate);
  }
  if (!std::isfinite(earliest_s))
    throw std::logic_error{"FlowSimulator: active flows with zero rate"};
  // Ceil to >= 1 ps so simulated time strictly advances.
  const sim::SimTime delay =
      std::max<sim::SimTime>(1, sim::from_seconds(earliest_s) + 1);
  completion_event_ =
      sim_->schedule_in(delay, [this] { handle_completion_event(); });
}

void FlowSimulator::handle_completion_event() {
  // Settle any same-timestamp churn first so every rate is fresh before the
  // drained-flow scan (also reschedules if the pending epoch changed the
  // earliest completion).
  flush_realloc();
  advance_to_now();
  std::vector<std::pair<FlowId, std::uint32_t>> done;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0 && slots_[i].remaining_bits <= kResidualBits) {
      done.emplace_back(slots_[i].id, i);
    }
  }
  // Deterministic completion order.
  std::sort(done.begin(), done.end());
  for (const auto& [id, idx] : done) finish_flow(idx);
  if (!done.empty()) {
    realloc_pending_ = true;
    flush_realloc();
  } else {
    schedule_next_completion();
  }
}

void FlowSimulator::finish_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  ++completed_;
  const FlowId id = s.id;
  FlowRecord record{id,
                    s.src,
                    s.dst,
                    s.size,
                    s.start,
                    sim_->now() + s.latency,
                    FlowOutcome::kCompleted,
                    s.size};
  auto cb = std::move(s.on_complete);
  if (s.causal.active()) {
    obs::RequestTracer::global().end_span(s.causal.trace_id, s.causal.span_id,
                                          record.finish);
    s.causal = {};
  }
  mark_path_dirty(s.path);
  unlink_flow(idx);
  release_slot(idx);
  const double fct_s = sim::to_seconds(record.finish - record.start);
  fct_.add(fct_s);
  if (obs::enabled()) {
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "completed")});
  }
  if (cb) cb(record);
}

void FlowSimulator::fail_flow(std::uint32_t idx) {
  FlowSlot& s = slots_[idx];
  ++failed_;
  const FlowId id = s.id;
  const double sent_bits =
      static_cast<double>(s.size) * 8.0 - s.remaining_bits;
  FlowRecord record{id,
                    s.src,
                    s.dst,
                    s.size,
                    s.start,
                    sim_->now(),
                    FlowOutcome::kFailed,
                    static_cast<sim::Bytes>(std::max(0.0, sent_bits) / 8.0)};
  auto cb = std::move(s.on_complete);
  if (s.causal.active()) {
    obs::RequestTracer::global().end_span(s.causal.trace_id, s.causal.span_id,
                                          sim_->now());
    s.causal = {};
  }
  mark_path_dirty(s.path);
  unlink_flow(idx);
  release_slot(idx);
  if (obs::enabled()) {
    obs::TraceRecorder::global().async_end(
        "net.flow", "flow", id, sim_->now(),
        {obs::trace_arg("outcome", "failed")});
  }
  net_log().warn() << "flow " << id << " failed: endpoints disconnected";
  if (cb) cb(record);
}

sim::SimTime simulate_shuffle(const Topology& topo, sim::Bytes bytes_per_pair,
                              RateAllocation allocation) {
  sim::Simulator sim;
  Router router{topo};
  FlowSimulator fabric{sim, topo, router, allocation};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  sim::SimTime last_finish = 0;
  // All H×(H−1) starts land on timestamp 0 and share one coalesced
  // reallocation epoch instead of paying H×(H−1) recomputes.
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) continue;
      fabric.start_flow(src, dst, bytes_per_pair,
                        [&last_finish](const FlowRecord& r) {
                          last_finish = std::max(last_finish, r.finish);
                        });
    }
  }
  sim.run();
  return last_finish;
}

}  // namespace rb::net
