#pragma once
// Flow-level datacenter fabric simulation.
//
// Flows are fluid: each active flow receives a rate from a max-min fair
// allocation across the directed capacities of the links on its ECMP path
// (progressive filling / water-filling). The allocation is recomputed when
// the active flow set changes, which is the standard abstraction for
// studying DC job/network interactions at the scale the roadmap discusses
// without simulating packets.
//
// Fast path (see DESIGN.md "Bandwidth allocator fast path"): flow state
// lives in a flat slot arena recycled through a free list, per-directed-link
// state is a dense vector indexed by directed-link index (link_id * 2 + dir),
// and every directed link keeps the list of flows crossing it so the solver
// freeze step only touches flows on bottleneck links. Arrivals, departures
// and reroutes that land on the same simulation timestamp are coalesced into
// a single reallocation via a zero-delay "realloc pending" event; synchronous
// queries (current_rate) force the pending solve so callers never observe a
// stale rate. RateAllocation::kMaxMinIncremental additionally re-solves only
// the flow/link component(s) reachable from the links whose membership
// changed, falling back to a full solve when the dirty component grows past
// a fixed fraction of the active flows.
//
// Failures: when the topology's fault state changes (links/switches/hosts
// going down or coming back), call handle_topology_change(). Every active
// flow whose path crosses a dead component is rerouted onto a surviving
// ECMP path if one exists; if the endpoints are disconnected the flow ends
// with FlowOutcome::kFailed — it never hangs and never silently completes.
//
// Telemetry: the flow outcome counts (started/completed/failed/cancelled/
// rerouted) and AllocatorStats below are the only copy of those numbers.
// With obs::enabled(), each flow additionally becomes a "net.flow" async
// trace span (reroutes are instants on the same track).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/context.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace rb::net {

using FlowId = std::uint64_t;

/// How a flow ended. kFailed means a component failure disconnected the
/// endpoints mid-flight and no alternate path existed.
enum class FlowOutcome : std::uint8_t { kCompleted, kFailed };

struct FlowRecord {
  FlowId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  sim::Bytes size = 0;
  sim::SimTime start = 0;
  sim::SimTime finish = 0;
  FlowOutcome outcome = FlowOutcome::kCompleted;
  /// Bytes actually delivered (== size when completed, partial when failed).
  sim::Bytes bytes_delivered = 0;
};

using FlowCallback = std::function<void(const FlowRecord&)>;

/// Bandwidth-sharing discipline (the DESIGN.md ablation):
///  - kMaxMinFair: max-min via progressive filling, full solve per epoch.
///  - kMaxMinIncremental: same allocation, but single-event changes re-solve
///    only the affected flow/link component (exact within FP rounding of the
///    full solve; falls back to a full solve on large dirty sets).
///  - kEqualSharePerLink: naive per-link equal split — every flow gets
///    min over its links of capacity/flows-on-link; feasible but leaves
///    bandwidth stranded whenever flows are bottlenecked elsewhere.
enum class RateAllocation : std::uint8_t {
  kMaxMinFair,
  kEqualSharePerLink,
  kMaxMinIncremental,
};

/// Allocator performance counters (all monotone), exposed so benches can
/// report reallocations/sec and solve-round telemetry.
struct AllocatorStats {
  std::uint64_t reallocations = 0;       ///< solver epochs actually run
  std::uint64_t full_solves = 0;         ///< epochs solved over all flows
  std::uint64_t incremental_solves = 0;  ///< epochs solved on a component
  std::uint64_t incremental_fallbacks = 0;  ///< dirty set too large → full
  std::uint64_t solve_rounds = 0;        ///< progressive-filling rounds total
  std::uint64_t coalesced_events = 0;    ///< realloc requests merged into a
                                         ///< pending same-timestamp epoch
};

class FlowSimulator {
 public:
  /// The topology and router must outlive the simulator.
  FlowSimulator(sim::Simulator& sim, const Topology& topo,
                const Router& router,
                RateAllocation allocation = RateAllocation::kMaxMinFair);

  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;
  ~FlowSimulator();

  /// Start a flow of `size` bytes now. `on_complete` (optional) fires at the
  /// flow's finish time (or failure time, with outcome kFailed). Zero-byte
  /// flows and src==dst complete immediately (after path propagation
  /// latency). Throws NoRouteError when the destination is unreachable at
  /// start time. When `parent` is an active causal context (and the
  /// RequestTracer is on), the flow's lifetime is additionally recorded as a
  /// kNetwork span under the caller's span tree.
  FlowId start_flow(NodeId src, NodeId dst, sim::Bytes size,
                    FlowCallback on_complete = {},
                    const obs::TraceContext& parent = {});

  /// Silently abandon an active flow (no callback, no outcome). Returns
  /// false if the flow is not active. Used when the consumer of the flow
  /// died (e.g. the scheduler killed the task that was fetching).
  bool cancel_flow(FlowId id);

  /// React to link/node up-down changes in the topology: reroute affected
  /// flows or fail them if disconnected. Call after every batch of
  /// Topology::set_*_up mutations. No-op when nothing relevant changed.
  void handle_topology_change();

  std::size_t active_flows() const noexcept { return active_count_; }
  std::uint64_t started_flows() const noexcept { return started_; }
  std::uint64_t completed_flows() const noexcept { return completed_; }
  std::uint64_t failed_flows() const noexcept { return failed_; }
  std::uint64_t cancelled_flows() const noexcept { return cancelled_; }
  /// Number of successful mid-flight path migrations (a flow surviving N
  /// distinct failures counts N times).
  std::uint64_t rerouted_flows() const noexcept { return rerouted_; }

  /// Current max-min rate of an active flow (bits/s); throws if unknown.
  /// Forces any pending coalesced reallocation so the rate is never stale.
  double current_rate(FlowId id) const;

  /// Allocator telemetry (reallocations, rounds, coalescing counters).
  const AllocatorStats& allocator_stats() const noexcept { return astats_; }

  /// Flow completion times (seconds) of all *completed* flows.
  const sim::PercentileTracker& fct_seconds() const noexcept { return fct_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One hop of a flow's directed path plus the flow's position in that
  /// directed link's membership list (for O(1) swap-removal).
  struct PathHop {
    std::uint32_t dlink = 0;  ///< directed link index: link_id * 2 + dir
    std::uint32_t pos = 0;    ///< index of this flow in DirLink::flows
  };

  /// Dense flow arena slot. `id == 0` marks a free slot (FlowIds start at 1).
  struct FlowSlot {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    sim::Bytes size = 0;
    double remaining_bits = 0.0;
    double rate = 0.0;  // bits/s
    sim::SimTime start = 0;
    sim::SimTime latency = 0;  // total path propagation, added to completion
    FlowId id = 0;
    std::uint32_t next_free = kNoSlot;  // free-list link while the slot is free
    bool frozen = false;       // progressive-filling scratch (per-slot flag)
    std::uint64_t visit = 0;   // dirty-component BFS stamp
    std::vector<PathHop> path;
    FlowCallback on_complete;
    /// Causal span for the flow's lifetime (trace_id 0 = untraced).
    obs::TraceContext causal;
  };

  /// Entry in a directed link's flow-membership list; `hop` is the index of
  /// this link inside the flow's path (so removals can back-patch the moved
  /// entry's PathHop::pos).
  struct LinkEntry {
    std::uint32_t slot = kNoSlot;
    std::uint32_t hop = 0;
  };

  /// Per-directed-link state, indexed by directed link index. Scratch fields
  /// are epoch-stamped so solves never pay an O(links) clear.
  struct DirLink {
    std::vector<LinkEntry> flows;  ///< active flows crossing this direction
    double remaining_cap = 0.0;    ///< solver scratch
    std::int32_t unfrozen = 0;     ///< solver scratch
    std::uint64_t inited = 0;      ///< solve-epoch stamp for scratch validity
    std::uint64_t visit = 0;       ///< dirty-component BFS stamp
    std::uint64_t dirty = 0;       ///< dirty-set membership stamp
  };

  // --- arena plumbing ---
  void ensure_dlinks();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void link_flow(std::uint32_t idx);
  void unlink_flow(std::uint32_t idx);
  void mark_path_dirty(const std::vector<PathHop>& path);

  /// Resolve src→dst into directed-link hops; throws NoRouteError.
  void build_path(FlowId id, NodeId src, NodeId dst,
                  std::vector<PathHop>& path, sim::SimTime& latency) const;
  bool path_is_live(const FlowSlot& flow) const;
  void advance_to_now();

  // --- coalesced reallocation ---
  /// Mark the allocation stale and arm a zero-delay solve event (at most one
  /// per timestamp). Same-timestamp requests coalesce into that epoch.
  void request_realloc();
  /// Run the pending epoch now (advance, solve, reschedule completion).
  void flush_realloc();
  void solve();
  bool try_solve_incremental();
  void solve_subset(const std::vector<std::uint32_t>& subset);
  void solve_equal_share();

  void schedule_next_completion();
  void handle_completion_event();
  void finish_flow(std::uint32_t idx);
  void fail_flow(std::uint32_t idx);

  sim::Simulator* sim_;
  const Topology* topo_;
  const Router* router_;
  RateAllocation allocation_;

  std::vector<FlowSlot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t active_count_ = 0;
  std::vector<DirLink> dlinks_;
  /// FlowId → slot; consulted only on the API boundary (cancel/current_rate),
  /// never inside the solver loops.
  std::unordered_map<FlowId, std::uint32_t> id_to_slot_;

  // Dirty-set accumulator for kMaxMinIncremental (stamp-deduped).
  std::vector<std::uint32_t> dirty_links_;
  std::uint64_t dirty_epoch_ = 1;

  bool realloc_pending_ = false;
  sim::EventHandle realloc_event_;
  std::uint64_t solve_epoch_ = 0;
  std::uint64_t visit_epoch_ = 0;
  // Reusable solver scratch (kept hot across epochs, never shrunk).
  std::vector<std::uint32_t> active_links_;
  std::vector<std::uint32_t> subset_slots_;
  std::vector<std::uint32_t> bfs_stack_;
  std::vector<PathHop> path_scratch_;

  FlowId next_id_ = 1;
  sim::SimTime last_advance_ = 0;
  sim::EventHandle completion_event_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rerouted_ = 0;
  AllocatorStats astats_;
  sim::PercentileTracker fct_;
};

/// Run an all-to-all shuffle of `bytes_per_pair` between every ordered pair
/// of distinct hosts; returns the makespan (time until the last flow
/// finishes). All H×(H−1) flows start under a single coalesced reallocation
/// epoch. Used to study Ethernet-generation scaling (experiment E3) and the
/// rate-allocation ablation.
sim::SimTime simulate_shuffle(
    const Topology& topo, sim::Bytes bytes_per_pair,
    RateAllocation allocation = RateAllocation::kMaxMinFair);

}  // namespace rb::net
