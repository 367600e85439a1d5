#include "serve/slo.hpp"

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace rb::serve {

namespace {

const char* op_name(OpKind op) noexcept {
  return op == OpKind::kGet ? "get" : "put";
}

}  // namespace

const char* to_string(RequestOutcome outcome) noexcept {
  switch (outcome) {
    case RequestOutcome::kCompleted: return "completed";
    case RequestOutcome::kRejected: return "rejected";
    case RequestOutcome::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(Overloaded reason) noexcept {
  switch (reason) {
    case Overloaded::kQueueFull: return "queue_full";
  }
  return "?";
}

SloAccountant::SloAccountant() = default;

void SloAccountant::attach_telemetry(obs::Rollup* rollup,
                                     obs::AlertEngine* alerts,
                                     double slo_latency_s) {
  rollup_ = rollup;
  alerts_ = alerts;
  slo_latency_s_ = slo_latency_s;
  issued_s_ = completed_s_ = rejected_s_ = failed_s_ = latency_s_ = nullptr;
}

void SloAccountant::on_issued(const Request& req) {
  ++issued_;
  if (rollup_ != nullptr) {
    if (issued_s_ == nullptr) issued_s_ = &rollup_->counter("serve.issued");
    issued_s_->record(req.issued, 1.0);
  }
  auto& tracer = obs::TraceRecorder::global();
  if (tracer.enabled()) {
    tracer.async_begin("serve.request", op_name(req.op), req.id, req.issued,
                       {obs::trace_arg("key", req.key)});
  }
}

void SloAccountant::on_completed(const Request& req, sim::SimTime now) {
  ++completed_;
  const double seconds = sim::to_seconds(now - req.issued);
  latency_.add(seconds);
  auto& causal = obs::RequestTracer::global();
  if (causal.enabled() && req.trace.active()) {
    causal.finish(req.trace.trace_id, now, obs::TraceOutcome::kCompleted);
  }
  if (rollup_ != nullptr) {
    if (completed_s_ == nullptr) {
      completed_s_ = &rollup_->counter("serve.completed");
      latency_s_ = &rollup_->value("serve.latency_s");
    }
    completed_s_->record(now, 1.0);
    latency_s_->record(now, seconds);
  }
  if (alerts_ != nullptr) {
    const bool good = slo_latency_s_ <= 0.0 || seconds <= slo_latency_s_;
    if (good) {
      alerts_->record_good(now);
    } else {
      alerts_->record_bad(now);
    }
  }
  auto& tracer = obs::TraceRecorder::global();
  if (tracer.enabled()) {
    tracer.async_end("serve.request", op_name(req.op), req.id, now,
                     {obs::trace_arg("outcome", "completed"),
                      obs::trace_arg("attempts",
                                     static_cast<std::int64_t>(req.attempts))});
  }
}

void SloAccountant::on_rejected(const Request& req, Overloaded reason,
                                sim::SimTime now) {
  ++rejected_;
  auto& causal = obs::RequestTracer::global();
  if (causal.enabled() && req.trace.active()) {
    causal.finish(req.trace.trace_id, now, obs::TraceOutcome::kRejected);
  }
  if (rollup_ != nullptr) {
    if (rejected_s_ == nullptr) rejected_s_ = &rollup_->counter("serve.rejected");
    rejected_s_->record(now, 1.0);
  }
  if (alerts_ != nullptr) alerts_->record_bad(now);
  auto& tracer = obs::TraceRecorder::global();
  if (tracer.enabled()) {
    tracer.async_end("serve.request", op_name(req.op), req.id, now,
                     {obs::trace_arg("outcome", "rejected"),
                      obs::trace_arg("reason", to_string(reason))});
  }
}

void SloAccountant::on_failed(const Request& req, sim::SimTime now) {
  ++failed_;
  auto& causal = obs::RequestTracer::global();
  if (causal.enabled() && req.trace.active()) {
    causal.finish(req.trace.trace_id, now, obs::TraceOutcome::kFailed);
  }
  if (rollup_ != nullptr) {
    if (failed_s_ == nullptr) failed_s_ = &rollup_->counter("serve.failed");
    failed_s_->record(now, 1.0);
  }
  if (alerts_ != nullptr) alerts_->record_bad(now);
  auto& tracer = obs::TraceRecorder::global();
  if (tracer.enabled()) {
    tracer.async_end("serve.request", op_name(req.op), req.id, now,
                     {obs::trace_arg("outcome", "failed"),
                      obs::trace_arg("attempts",
                                     static_cast<std::int64_t>(req.attempts))});
  }
}

void SloAccountant::on_retry(const Request& req) {
  static_cast<void>(req);
  ++retries_;
}

double SloAccountant::availability() const noexcept {
  return issued_ == 0
             ? 0.0
             : static_cast<double>(completed_) / static_cast<double>(issued_);
}

double SloAccountant::goodput_qps(sim::SimTime horizon) const noexcept {
  return horizon <= 0
             ? 0.0
             : static_cast<double>(completed_) / sim::to_seconds(horizon);
}

}  // namespace rb::serve
