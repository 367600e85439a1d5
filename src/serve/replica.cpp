#include "serve/replica.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/context.hpp"

namespace rb::serve {

namespace {

node::KernelProfile scaled(const node::KernelProfile& per_request,
                           std::size_t n) {
  node::KernelProfile batch = per_request;
  const double k = static_cast<double>(n);
  batch.flops *= k;
  batch.bytes *= k;
  if (batch.pcie_bytes > 0.0) batch.pcie_bytes *= k;
  return batch;
}

}  // namespace

ReplicaServer::ReplicaServer(sim::Simulator& sim, ReplicaId id,
                             net::NodeId host, const ReplicaParams& params,
                             std::uint64_t seed)
    : sim_{&sim},
      id_{id},
      host_{host},
      params_{params},
      store_{params.store},
      rng_{seed} {
  if (params_.batch_max == 0)
    throw std::invalid_argument{"ReplicaServer: batch_max must be >= 1"};
  if (params_.batch_overhead < 0)
    throw std::invalid_argument{"ReplicaServer: negative batch_overhead"};
}

sim::SimTime ReplicaServer::amortized_service_time(
    const ReplicaParams& params) {
  const sim::SimTime batch =
      params.batch_overhead +
      node::offload_time(params.device,
                         scaled(params.per_request, params.batch_max));
  return batch / static_cast<sim::SimTime>(params.batch_max);
}

bool ReplicaServer::try_enqueue(Request req) {
  if (!up_) return false;
  if (queue_.size() >= params_.queue_limit && !batch_.empty()) return false;
  // An idle replica serves immediately; only a busy one queues.
  req.enqueued = sim_->now();
  auto& tracer = obs::RequestTracer::global();
  if (tracer.enabled() && req.trace.active()) {
    // Open the queue span NOW: if the gateway abandons this attempt while it
    // is still queued, the clamped span keeps the wait attributable to this
    // replica instead of vanishing into "other".
    req.queue_span =
        tracer.begin_span(req.trace, obs::Segment::kQueue, "queue",
                          req.enqueued, static_cast<std::int64_t>(id_));
  }
  queue_.push_back(std::move(req));
  maybe_start_batch();
  return true;
}

void ReplicaServer::maybe_start_batch() {
  if (!up_ || !batch_.empty() || queue_.empty()) return;
  // Deadline propagation: drop expired queued work *before* costing service
  // — an answer nobody is waiting for must not occupy the device.
  std::vector<Request> dead;
  const sim::SimTime now = sim_->now();
  while (batch_.size() < params_.batch_max && !queue_.empty()) {
    Request req = std::move(queue_.front());
    queue_.pop_front();
    if (req.deadline > 0 && req.deadline <= now) {
      if (req.queue_span != 0) {
        obs::RequestTracer::global().end_span(req.trace.trace_id,
                                              req.queue_span, now);
      }
      dead.push_back(std::move(req));
    } else {
      batch_.push_back(std::move(req));
    }
  }
  expired_ += dead.size();
  if (batch_.empty()) {
    // Everything at the head was already dead; report and try again (the
    // recursion terminates: each round consumes queue entries).
    for (const Request& req : dead) {
      if (completion_) completion_(req, ReplicaOutcome::kExpired);
    }
    maybe_start_batch();
    return;
  }
  const std::size_t n = batch_.size();
  ++batches_;
  batch_sizes_.add(static_cast<double>(n));
  batch_started_ = now;

  // Amortized batch cost: fixed overhead + roofline time of n requests'
  // work, stretched by seeded lognormal jitter (device service_cv).
  sim::SimTime cost =
      params_.batch_overhead +
      node::offload_time(params_.device, scaled(params_.per_request, n));
  const double cv = std::max(params_.device.service_cv, 0.0);
  if (cv > 0.0) {
    const double s2 = std::log(1.0 + cv * cv);
    cost = static_cast<sim::SimTime>(
        static_cast<double>(cost) * rng_.lognormal(-s2 / 2.0, std::sqrt(s2)));
  }
  if (slowdown_ > 1.0) {
    cost = static_cast<sim::SimTime>(static_cast<double>(cost) * slowdown_);
  }
  const std::uint64_t generation = generation_;
  sim_->schedule_in(std::max<sim::SimTime>(cost, 1),
                    [this, generation] { finish_batch(generation); });
  // Report the expired requests only after the live batch is committed, so a
  // completion callback that re-enters (e.g. the front door resolving the
  // request) sees a consistent replica.
  for (const Request& req : dead) {
    if (completion_) completion_(req, ReplicaOutcome::kExpired);
  }
}

void ReplicaServer::finish_batch(std::uint64_t generation) {
  // A death between scheduling and firing already reported these requests
  // as killed; the stale event must do nothing.
  if (generation != generation_) return;
  std::vector<Request> done;
  done.swap(batch_);
  const sim::SimTime started = batch_started_;
  auto& tracer = obs::RequestTracer::global();
  for (const Request& req : done) {
    // Causal queue/service decomposition: the request waited from admission
    // to batch start, then occupied the device until now. Both spans parent
    // to the attempt span the dispatched copy carries.
    obs::TraceContext service_ctx;
    if (tracer.enabled() && req.trace.active()) {
      tracer.end_span(req.trace.trace_id, req.queue_span, started);
      const std::uint64_t service_span =
          tracer.begin_span(req.trace, obs::Segment::kService, "service",
                            started, static_cast<std::int64_t>(id_));
      service_ctx = obs::TraceContext{req.trace.trace_id, service_span};
    }
    execute(req, service_ctx);
    if (service_ctx.active()) {
      tracer.end_span(service_ctx.trace_id, service_ctx.span_id, sim_->now());
    }
    ++served_;
    if (completion_) completion_(req, ReplicaOutcome::kServed);
  }
  maybe_start_batch();
}

void ReplicaServer::execute(const Request& req,
                            const obs::TraceContext& service_ctx) {
  if (req.op == OpKind::kPut) {
    store_.put(req.key, req.value);
  } else {
    // The result value is not propagated (clients in this simulation care
    // about latency, not payloads), but the lookup is real: bloom filters,
    // sstable probes and their counters all move — and with an active trace
    // the read emits a storage span under the service span.
    static_cast<void>(store_.get(req.key, service_ctx, batch_started_));
  }
}

void ReplicaServer::set_down() {
  if (!up_) return;
  up_ = false;
  ++generation_;  // invalidate any in-flight batch-finish event
  std::vector<Request> victims;
  victims.swap(batch_);
  for (Request& req : queue_) {
    // Batch victims' queue spans already closed at batch start; only the
    // still-queued ones are open and end at the kill.
    if (req.queue_span != 0) {
      obs::RequestTracer::global().end_span(req.trace.trace_id, req.queue_span,
                                            sim_->now());
    }
    victims.push_back(std::move(req));
  }
  queue_.clear();
  killed_ += victims.size();
  for (const Request& req : victims) {
    if (completion_) completion_(req, ReplicaOutcome::kKilled);
  }
}

void ReplicaServer::set_up() {
  if (up_) return;
  up_ = true;
  maybe_start_batch();
}

void ReplicaServer::set_slowdown(double factor) {
  if (factor < 1.0)
    throw std::invalid_argument{"ReplicaServer: slowdown factor must be >= 1"};
  // Applies to batches started from now on; the in-service batch keeps the
  // cost it was scheduled with (its work was already dispatched).
  slowdown_ = factor;
}

}  // namespace rb::serve
