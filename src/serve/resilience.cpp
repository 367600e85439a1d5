#include "serve/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rb::serve {

/// --- RetryBudget --------------------------------------------------------

RetryBudget::RetryBudget(const RetryBudgetParams& params)
    : params_{params}, tokens_{params.burst} {}

void RetryBudget::on_issued() noexcept {
  if (!params_.enabled) return;
  tokens_ = std::min(params_.burst, tokens_ + params_.ratio);
}

bool RetryBudget::try_spend() noexcept {
  if (!params_.enabled) return true;
  if (tokens_ < 1.0) {
    ++denied_;
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

/// --- CircuitBreaker -----------------------------------------------------

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(const BreakerParams& params)
    : params_{params} {}

void CircuitBreaker::trip(sim::SimTime now) {
  state_ = BreakerState::kOpen;
  open_until_ = now + params_.open_cooldown;
  consecutive_failures_ = 0;
  probes_left_ = 0;
  probe_successes_ = 0;
  ++opens_;
}

bool CircuitBreaker::allow(sim::SimTime now) {
  if (!params_.enabled) return true;
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now < open_until_) {
        ++denials_;
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      probes_left_ = params_.half_open_probes;
      probe_successes_ = 0;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (probes_left_ <= 0) {
        ++denials_;
        return false;
      }
      --probes_left_;
      return true;
  }
  return true;
}

void CircuitBreaker::on_success(double latency_s, sim::SimTime now) {
  if (!params_.enabled) return;
  // EWMA over success latencies only: a killed attempt has no latency, and
  // rejections are instant — neither says anything about service speed.
  ewma_s_ = ewma_samples_ == 0
                ? latency_s
                : params_.latency_alpha * latency_s +
                      (1.0 - params_.latency_alpha) * ewma_s_;
  ++ewma_samples_;
  const bool slow = params_.latency_threshold_s > 0.0 &&
                    latency_s > params_.latency_threshold_s;
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      if (params_.latency_threshold_s > 0.0 &&
          ewma_samples_ >= params_.min_latency_samples &&
          ewma_s_ > params_.latency_threshold_s) {
        trip(now);
        // The gray replica is being avoided; stale speed estimates must not
        // instantly re-trip the breaker when probes come back fast.
        ewma_s_ = 0.0;
        ewma_samples_ = 0;
      }
      break;
    case BreakerState::kHalfOpen:
      if (slow) {
        // The probe came back, but late: still gray. Reopen.
        trip(now);
        ewma_s_ = 0.0;
        ewma_samples_ = 0;
        break;
      }
      if (++probe_successes_ >= params_.half_open_probes) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // Late response from an attempt issued before the trip; ignore.
      break;
  }
}

void CircuitBreaker::on_failure(sim::SimTime now) {
  if (!params_.enabled) return;
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= params_.failure_threshold) trip(now);
      break;
    case BreakerState::kHalfOpen:
      trip(now);  // one failed probe is enough
      break;
    case BreakerState::kOpen:
      break;
  }
}

/// --- HedgeDelayTracker --------------------------------------------------

HedgeDelayTracker::HedgeDelayTracker(const HedgeParams& params)
    : params_{params} {
  if (!(params_.quantile >= 0.0 && params_.quantile <= 100.0))
    throw std::invalid_argument{
        "HedgeDelayTracker: quantile must be in [0, 100]"};
  ring_.reserve(std::max<std::size_t>(params_.window, 1));
}

void HedgeDelayTracker::record(double latency_s) {
  const std::size_t window = std::max<std::size_t>(params_.window, 1);
  if (ring_.size() < window) {
    ring_.push_back(latency_s);
  } else {
    ring_[next_] = latency_s;
  }
  next_ = (next_ + 1) % window;
  ++count_;
}

sim::SimTime HedgeDelayTracker::delay() const {
  if (count_ < params_.min_samples || ring_.empty()) return params_.min_delay;
  // Recompute at most once per window/8 new samples: nth_element over the
  // window is cheap, but not per-attempt cheap.
  const std::size_t stride = std::max<std::size_t>(ring_.size() / 8, 1);
  if (cached_at_ == 0 || count_ - cached_at_ >= stride) {
    std::vector<double> scratch{ring_};
    const double q = params_.quantile / 100.0;
    const auto rank = static_cast<std::size_t>(
        std::min<double>(std::floor(q * static_cast<double>(scratch.size())),
                         static_cast<double>(scratch.size() - 1)));
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(rank),
                     scratch.end());
    const double at_rank = scratch[rank];
    cached_delay_ = std::max(params_.min_delay, sim::from_seconds(at_rank));
    cached_at_ = count_;
  }
  return cached_delay_;
}

}  // namespace rb::serve
