#include "serve/frontdoor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "obs/context.hpp"

namespace rb::serve {

namespace {

constexpr sim::Bytes kHeaderBytes = 64;  // request/response framing

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FrontDoor::FrontDoor(sim::Simulator& sim, const net::Topology& topo,
                     const net::Router& router, const FrontDoorParams& params)
    : sim_{&sim},
      topo_{&topo},
      router_{&router},
      params_{params},
      ring_{params.vnodes_per_replica},
      rng_{params.seed},
      key_dist_{std::max<std::size_t>(params.key_universe, 1), params.zipf_s},
      budget_{params.resilience.budget},
      hedge_delay_{params.resilience.hedge} {
  if (params_.key_universe == 0)
    throw std::invalid_argument{"FrontDoor: empty key universe"};
  if (params_.replication == 0)
    throw std::invalid_argument{"FrontDoor: replication must be >= 1"};
  if (params_.offered_qps <= 0.0)
    throw std::invalid_argument{"FrontDoor: offered_qps must be > 0"};
  if (params_.read_fraction < 0.0 || params_.read_fraction > 1.0)
    throw std::invalid_argument{"FrontDoor: read_fraction out of [0, 1]"};
  if (params_.diurnal_amplitude < 0.0 || params_.diurnal_amplitude >= 1.0)
    throw std::invalid_argument{
        "FrontDoor: diurnal_amplitude out of [0, 1)"};
  if (params_.max_attempts < 1)
    throw std::invalid_argument{"FrontDoor: max_attempts must be >= 1"};
  if (params_.resilience.request_timeout < 0 ||
      params_.resilience.attempt_timeout < 0)
    throw std::invalid_argument{"FrontDoor: negative timeout"};

  const auto hosts = topo_->nodes_of_kind(net::NodeKind::kHost);
  if (hosts.size() < 2)
    throw std::invalid_argument{
        "FrontDoor: topology needs >= 2 hosts (gateway + replicas)"};
  const std::size_t count =
      params_.replicas == 0 ? hosts.size() - 1 : params_.replicas;
  if (count + 1 > hosts.size())
    throw std::invalid_argument{
        "FrontDoor: fewer hosts than requested replicas"};
  gateway_ = hosts.front();
  replicas_.reserve(count);
  breakers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<ReplicaId>(i);
    const net::NodeId host = hosts[i + 1];
    replicas_.push_back(std::make_unique<ReplicaServer>(
        *sim_, id, host, params_.replica, rng_()));
    replicas_.back()->on_complete(
        [this, id](const Request& req, ReplicaOutcome outcome) {
          replica_completed(req, outcome, id);
        });
    breakers_.emplace_back(params_.resilience.breaker);
    host_to_replica_.emplace(host, id);
    ring_.add_node(id);
  }
}

std::string FrontDoor::key_string(std::size_t index) const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "k%08zu", index);
  return buf;
}

void FrontDoor::preload() {
  const std::string value(params_.value_bytes, 'v');
  const std::size_t r = std::min(params_.replication, replicas_.size());
  for (std::size_t k = 0; k < params_.key_universe; ++k) {
    const std::string key = key_string(k);
    for (const ReplicaId id : ring_.replicas(key, r).replicas) {
      replicas_[id]->store().put(key, value);
    }
  }
}

void FrontDoor::start() {
  if (started_) return;
  started_ = true;
  schedule_next_arrival();
}

void FrontDoor::schedule_next_arrival() {
  // Poisson arrivals with a (slowly varying) diurnal rate: the next gap is
  // exponential at the instantaneous rate.
  double rate = params_.offered_qps;
  if (params_.diurnal_amplitude > 0.0) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(sim_->now()) /
                         static_cast<double>(params_.diurnal_period);
    rate *= 1.0 + params_.diurnal_amplitude * std::sin(phase);
  }
  const sim::SimTime gap = std::max<sim::SimTime>(
      sim::from_seconds(rng_.exponential(1.0 / rate)), 1);
  if (sim_->now() + gap >= params_.horizon) return;  // population stops
  sim_->schedule_in(gap, [this] {
    issue();
    schedule_next_arrival();
  });
}

Request FrontDoor::make_request() {
  Request req;
  req.id = next_request_id_++;
  req.issued = sim_->now();
  if (params_.resilience.request_timeout > 0) {
    req.deadline = req.issued + params_.resilience.request_timeout;
  }
  req.key = key_string(key_dist_(rng_));
  if (!rng_.chance(params_.read_fraction)) {
    req.op = OpKind::kPut;
    req.value.assign(params_.value_bytes, 'w');
  }
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled()) {
    req.trace = tracer.start_trace(
        req.op == OpKind::kGet ? "get" : "put", req.issued);
  }
  return req;
}

void FrontDoor::issue() {
  Request req = make_request();
  slo_.on_issued(req);
  budget_.on_issued();
  const std::uint64_t id = req.id;
  Pending& p = pending_[id];
  p.req = std::move(req);
  start_wave(id);
}

ReplicaId FrontDoor::pick_target(const Pending& p, bool hedge) {
  const std::size_t r = std::min(params_.replication, replicas_.size());
  const Placement placement = ring_.replicas(p.req.key, r);
  // Candidates: owners that are ring-live, whose host is up, and that are
  // serving. (Ownership never changes with up/down — only contactability.)
  std::vector<ReplicaId> live;
  live.reserve(placement.replicas.size());
  for (const ReplicaId id : placement.replicas) {
    if (ring_.up(id) && topo_->node_up(replicas_[id]->host()) &&
        replicas_[id]->serving()) {
      live.push_back(id);
    }
  }
  if (live.empty()) return kInvalidReplica;
  // Puts start at the first live owner; gets spread across live owners by a
  // deterministic per-request rotation (retries move to the next one).
  std::size_t first = 0;
  if (p.req.op == OpKind::kGet) {
    first = static_cast<std::size_t>(
        (mix(p.req.id) + static_cast<std::uint64_t>(p.req.attempts)) %
        live.size());
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    const ReplicaId candidate = live[(first + i) % live.size()];
    // A hedge must race a *different* replica than the in-flight attempts.
    if (hedge) {
      bool in_flight = false;
      for (const Attempt& a : p.attempts) in_flight |= a.target == candidate;
      if (in_flight) continue;
    }
    // Breaker gate last: allow() meters half-open probes, so it must only
    // be consulted for a candidate that would actually be sent to. (Denials
    // are counted by the breaker itself.)
    if (!breakers_[candidate].allow(sim_->now())) continue;
    return candidate;
  }
  return kInvalidReplica;
}

void FrontDoor::start_wave(std::uint64_t id) {
  Pending& p = pending_.at(id);
  p.attempts.clear();
  p.hedged = false;
  p.rejected = false;
  p.expired = false;
  const ReplicaId target = pick_target(p, /*hedge=*/false);
  if (target == kInvalidReplica) {
    // Nothing sendable (all owners down or breaker-denied): burn an attempt
    // and go through the retry gates — maybe someone recovers by then.
    retry_or_fail(id);
    return;
  }
  dispatch(id, target, /*hedge=*/false);
  // dispatch() may have resolved the request (unreachable target, retry
  // gates all said no) — re-look-up before arming the wave's timers.
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.attempts.empty()) return;
  const int wave = it->second.req.attempts;
  if (params_.resilience.attempt_timeout > 0) {
    sim_->schedule_in(params_.resilience.attempt_timeout,
                      [this, id, wave] { on_attempt_timeout(id, wave); });
  }
  const std::size_t r = std::min(params_.replication, replicas_.size());
  if (params_.resilience.hedge.enabled &&
      it->second.req.op == OpKind::kGet && r > 1) {
    sim_->schedule_in(std::max<sim::SimTime>(hedge_delay_.delay(), 1),
                      [this, id, wave] { maybe_hedge(id, wave); });
  }
}

void FrontDoor::dispatch(std::uint64_t id, ReplicaId target, bool hedge) {
  Pending& p = pending_.at(id);
  const sim::Bytes payload =
      kHeaderBytes + p.req.key.size() +
      (p.req.op == OpKind::kPut ? params_.value_bytes : 0);
  const sim::SimTime delay =
      path_delay(gateway_, replicas_[target]->host(), payload,
                 mix(p.req.id * 2 + 1 + (hedge ? 0x9e37 : 0)));
  if (delay < 0) {
    // Unreachable counts as a transport failure for the target's breaker.
    breakers_[target].on_failure(sim_->now());
    if (p.attempts.empty()) {
      wave_exhausted(id);
    }
    return;
  }
  p.attempts.push_back(Attempt{target, sim_->now(), hedge});
  Request copy = p.req;
  // Causal propagation: open an attempt span under the request's root and
  // hand the dispatched copy the attempt's coordinates, so the replica's
  // queue/service spans (and the response path) parent to THIS attempt.
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && p.req.trace.active()) {
    const std::uint64_t attempt_span = tracer.begin_span(
        p.req.trace, obs::Segment::kAttempt, hedge ? "hedge" : "attempt",
        sim_->now(), static_cast<std::int64_t>(target));
    copy.trace.span_id = attempt_span;
    tracer.add_span(copy.trace, obs::Segment::kNetwork, "net.out",
                    sim_->now(), sim_->now() + delay,
                    static_cast<std::int64_t>(target));
  }
  sim_->schedule_in(delay, [this, copy = std::move(copy), target]() mutable {
    deliver(std::move(copy), target);
  });
}

void FrontDoor::deliver(Request req, ReplicaId target) {
  const auto it = pending_.find(req.id);
  if (it == pending_.end() || it->second.req.attempts != req.attempts) {
    // The race is over (hedge loser) or the wave was abandoned while this
    // attempt was on the wire: drop it before it costs the replica anything.
    return;
  }
  Pending& p = it->second;
  ReplicaServer& replica = *replicas_[target];
  // The host may have died while the request was on the wire.
  if (!topo_->node_up(replica.host()) || !replica.serving()) {
    attempt_transport_failed(req.id, target);
    return;
  }
  if (!replica.try_enqueue(req)) {
    // Admission control: shed, typed, terminal — never retried. With a
    // hedge twin still in flight the twin may yet complete the request; the
    // rejection becomes terminal only once the wave has no survivors.
    p.rejected = true;
    remove_attempt(p, target);
    if (p.attempts.empty()) wave_exhausted(req.id);
  }
}

void FrontDoor::replica_completed(const Request& req, ReplicaOutcome outcome,
                                  ReplicaId target) {
  const auto it = pending_.find(req.id);
  const bool stale = it == pending_.end() ||
                     it->second.req.attempts != req.attempts;
  switch (outcome) {
    case ReplicaOutcome::kKilled:
      // Transport death is breaker evidence even for abandoned attempts.
      breakers_[target].on_failure(sim_->now());
      if (!stale) attempt_transport_failed(req.id, target);
      return;
    case ReplicaOutcome::kExpired: {
      if (stale) return;  // zombie expired in a queue: already abandoned
      Pending& p = it->second;
      p.expired = true;
      ++rstats_.deadline_queue_drops;
      remove_attempt(p, target);
      if (p.attempts.empty()) wave_exhausted(req.id);
      return;
    }
    case ReplicaOutcome::kServed:
      break;
  }
  if (stale) {
    // A zombie (timed-out or hedge-lost attempt) got served anyway: the
    // capacity is spent, the response will be discarded. This is the wasted
    // work retry budgets and deadlines exist to bound.
    ++rstats_.wasted_responses;
    return;
  }
  Pending& p = it->second;
  if (req.op == OpKind::kPut) {
    // Asynchronous replication: surviving sibling owners apply the write at
    // service-finish time; owners currently down simply miss it.
    const std::size_t r = std::min(params_.replication, replicas_.size());
    for (const ReplicaId sibling : ring_.replicas(req.key, r).replicas) {
      if (sibling == target) continue;
      if (ring_.up(sibling) && topo_->node_up(replicas_[sibling]->host())) {
        replicas_[sibling]->store().put(req.key, req.value);
      }
    }
  }
  sim::SimTime sent = 0;
  for (const Attempt& a : p.attempts) {
    if (a.target == target) sent = a.sent;
  }
  const sim::Bytes payload =
      kHeaderBytes + (req.op == OpKind::kGet ? params_.value_bytes : 0);
  sim::SimTime delay = path_delay(replicas_[target]->host(), gateway_,
                                  payload, mix(req.id * 2));
  // Responses are not dropped: if the return path is momentarily
  // partitioned, charge zero fabric delay rather than losing the reply.
  if (delay < 0) delay = 0;
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && req.trace.active()) {
    tracer.add_span(req.trace, obs::Segment::kNetwork, "net.response",
                    sim_->now(), sim_->now() + delay,
                    static_cast<std::int64_t>(target));
  }
  sim_->schedule_in(delay, [this, req, target, sent] {
    response_arrived(req, target, sent);
  });
}

void FrontDoor::response_arrived(const Request& req, ReplicaId target,
                                 sim::SimTime sent) {
  // Attempt RTT as the client saw it: gateway dispatch to gateway arrival.
  // Feeds the hedge-delay quantile and the target's breaker even when the
  // race is already over — it is genuine evidence about replica speed.
  const double rtt_s = sim::to_seconds(sim_->now() - sent);
  hedge_delay_.record(rtt_s);
  breakers_[target].on_success(rtt_s, sim_->now());
  const auto it = pending_.find(req.id);
  if (it == pending_.end() || it->second.req.attempts != req.attempts) {
    ++rstats_.wasted_responses;  // hedge loser or abandoned attempt
    return;
  }
  // First response wins the wave and resolves the request.
  for (const Attempt& a : it->second.attempts) {
    if (a.target == target && a.hedge) {
      ++rstats_.hedges_won;
    }
  }
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && req.trace.active()) {
    // req.trace.span_id is the winning attempt's span (stamped at dispatch).
    tracer.end_span(req.trace.trace_id, req.trace.span_id, sim_->now());
    tracer.mark_won(req.trace.trace_id, req.trace.span_id);
  }
  slo_.on_completed(req, sim_->now());
  pending_.erase(it);
}

bool FrontDoor::remove_attempt(Pending& p, ReplicaId target) {
  for (auto a = p.attempts.begin(); a != p.attempts.end(); ++a) {
    if (a->target == target) {
      p.attempts.erase(a);
      return true;
    }
  }
  return false;
}

void FrontDoor::attempt_transport_failed(std::uint64_t id, ReplicaId target) {
  Pending& p = pending_.at(id);
  remove_attempt(p, target);
  if (p.attempts.empty()) wave_exhausted(id);
}

void FrontDoor::on_attempt_timeout(std::uint64_t id, int wave) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.req.attempts != wave) return;
  Pending& p = it->second;
  if (p.attempts.empty()) return;  // wave already exhausted; retry scheduled
  // Abandon every in-flight attempt of this wave: their responses (if any)
  // will arrive with a stale attempts value and be discarded. The attempts
  // themselves may still be queued at replicas — zombies whose service cost
  // is the hidden price of timeouts. Timeouts do NOT feed the breakers: a
  // timed-out attempt on an overloaded-but-healthy replica says "the fleet
  // is slow", not "this replica is broken" (kills and unreachability do).
  ++rstats_.attempt_timeouts;
  p.attempts.clear();
  retry_or_fail(id);
}

void FrontDoor::maybe_hedge(std::uint64_t id, int wave) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.req.attempts != wave) return;
  Pending& p = it->second;
  if (p.hedged || p.attempts.empty()) return;
  const ReplicaId target = pick_target(p, /*hedge=*/true);
  if (target == kInvalidReplica) return;  // nobody distinct to race
  p.hedged = true;
  ++rstats_.hedges_issued;
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && p.req.trace.active() && !p.attempts.empty()) {
    // The wait from the wave's first dispatch until now is what hedging
    // cost this request IF the hedge ends up winning; the critical-path
    // analyzer charges it only in that case.
    tracer.add_span(p.req.trace, obs::Segment::kHedgeWait, "hedge_wait",
                    p.attempts.front().sent, sim_->now(),
                    static_cast<std::int64_t>(target));
  }
  dispatch(id, target, /*hedge=*/true);
}

void FrontDoor::wave_exhausted(std::uint64_t id) {
  Pending& p = pending_.at(id);
  if (p.rejected) {
    // Shed load stays shed: a wave that saw admission-control rejection
    // terminates as rejected even if a hedge twin died elsewhere.
    slo_.on_rejected(p.req, Overloaded::kQueueFull, sim_->now());
    pending_.erase(id);
    return;
  }
  if (p.expired) {
    // The deadline passed while queued; retrying cannot beat it.
    ++rstats_.deadline_drops;
    resolve_failed(id);
    return;
  }
  retry_or_fail(id);
}

sim::SimTime FrontDoor::backoff_for(int attempts) {
  // Capped exponential base with seeded equal-jitter: uniform in
  // [base/2, base], so concurrent failovers decorrelate instead of
  // thundering back in lockstep.
  sim::SimTime base = params_.retry_backoff;
  for (int i = 1; i < attempts && base < params_.retry_backoff_cap; ++i) {
    base *= 2;
  }
  base = std::min(base, params_.retry_backoff_cap);
  const auto jittered = static_cast<sim::SimTime>(
      static_cast<double>(base) * rng_.uniform(0.5, 1.0));
  return std::max<sim::SimTime>(jittered, 1);
}

void FrontDoor::retry_or_fail(std::uint64_t id) {
  Pending& p = pending_.at(id);
  ++p.req.attempts;
  if (p.req.attempts >= params_.max_attempts) {
    resolve_failed(id);
    return;
  }
  const sim::SimTime backoff = backoff_for(p.req.attempts);
  if (p.req.deadline > 0 && sim_->now() + backoff >= p.req.deadline) {
    // Deadline propagation, caller side: never launch a retry that cannot
    // land in time.
    ++rstats_.deadline_drops;
    resolve_failed(id);
    return;
  }
  if (!budget_.try_spend()) {
    // Retry storm guard: out of budget, fail fast instead of amplifying.
    ++rstats_.retries_budgeted;
    resolve_failed(id);
    return;
  }
  slo_.on_retry(p.req);
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && p.req.trace.active()) {
    tracer.add_span(p.req.trace, obs::Segment::kBackoff, "backoff",
                    sim_->now(), sim_->now() + backoff);
  }
  sim_->schedule_in(backoff, [this, id] { start_wave(id); });
}

void FrontDoor::resolve_failed(std::uint64_t id) {
  Pending& p = pending_.at(id);
  slo_.on_failed(p.req, sim_->now());
  pending_.erase(id);
}

sim::SimTime FrontDoor::path_delay(net::NodeId from, net::NodeId to,
                                   sim::Bytes payload,
                                   std::uint64_t flow_hash) const {
  if (from == to) return 0;
  try {
    sim::SimTime total = 0;
    for (const net::LinkId link_id : router_->path(from, to, flow_hash)) {
      const net::Link& link = topo_->link(link_id);
      const sim::SimTime hop =
          link.latency + sim::serialization_time(payload, link.rate);
      // A gray link (or endpoint) stretches both propagation and
      // serialization — rate / slowdown is the same as time * slowdown.
      const double slow = topo_->effective_slowdown(link_id);
      total += slow > 1.0 ? static_cast<sim::SimTime>(
                                static_cast<double>(hop) * slow)
                          : hop;
    }
    return total;
  } catch (const net::NoRouteError&) {
    return -1;
  }
}

void FrontDoor::handle_fault(const faults::FaultEvent& event) {
  if (event.target != faults::FaultTarget::kNode) return;
  const auto it = host_to_replica_.find(event.id);
  if (it == host_to_replica_.end()) return;
  const ReplicaId id = it->second;
  if (event.mode == faults::FaultMode::kDegrade) {
    // Gray failure: the replica stays in the ring and keeps serving —
    // slowly. Only latency-aware machinery (breakers, hedging, deadlines)
    // can route around it; membership never notices.
    replicas_[id]->set_slowdown(event.up ? 1.0 : event.factor);
    return;
  }
  ring_.set_up(id, event.up);
  if (event.up) {
    replicas_[id]->set_up();
  } else {
    // Kills queued and in-service work; each victim's completion callback
    // fires with kKilled and fails over above.
    replicas_[id]->set_down();
  }
}

std::vector<net::NodeId> FrontDoor::replica_hosts() const {
  std::vector<net::NodeId> hosts;
  hosts.reserve(replicas_.size());
  for (const auto& replica : replicas_) hosts.push_back(replica->host());
  return hosts;
}

ResilienceStats FrontDoor::resilience_stats() const {
  ResilienceStats out = rstats_;
  for (const CircuitBreaker& b : breakers_) {
    out.breaker_opens += b.opens();
    out.breaker_denials += b.denials();
  }
  return out;
}

double estimated_capacity_qps(const FrontDoorParams& params,
                              std::size_t replica_count) {
  const double per_request_s = sim::to_seconds(
      ReplicaServer::amortized_service_time(params.replica));
  return per_request_s <= 0.0
             ? 0.0
             : static_cast<double>(replica_count) / per_request_s;
}

faults::FaultPlan make_host_churn_plan(const std::vector<net::NodeId>& hosts,
                                       double mtbf_s, double mttr_s,
                                       sim::SimTime horizon,
                                       std::uint64_t seed) {
  if (mtbf_s <= 0.0 || mttr_s <= 0.0)
    throw std::invalid_argument{"make_host_churn_plan: rates must be > 0"};
  faults::FaultPlan plan;
  sim::Rng rng{seed};
  for (const net::NodeId host : hosts) {
    sim::SimTime t = sim::from_seconds(rng.exponential(mtbf_s));
    while (t < horizon) {
      const sim::SimTime down = std::max<sim::SimTime>(
          sim::from_seconds(rng.exponential(mttr_s)), 1);
      // Repair lands inside the horizon, so nothing stays dead forever.
      const sim::SimTime outage = std::min(down, horizon - 1 - t);
      plan.add_node_outage(host, t, std::max<sim::SimTime>(outage, 1));
      t += down + sim::from_seconds(rng.exponential(mtbf_s));
    }
  }
  return plan;
}

}  // namespace rb::serve
