#include "sim/simulator.hpp"

#include <stdexcept>

namespace rb::sim {

EventHandle Simulator::schedule_at(SimTime when, EventFn fn) {
  if (when < now_)
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulator::schedule_in(SimTime delay, EventFn fn) {
  if (delay < 0)
    throw std::invalid_argument{"Simulator::schedule_in: negative delay"};
  return queue_.schedule(now_ + delay, std::move(fn));
}

std::uint64_t Simulator::run() {
  std::uint64_t processed = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    auto [when, fn] = queue_.pop();
    now_ = when;
    fn();
    ++processed;
  }
  return processed;
}

std::uint64_t Simulator::run_until(SimTime until) {
  if (until < now_)
    throw std::invalid_argument{"Simulator::run_until: time in the past"};
  std::uint64_t processed = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_ && queue_.next_time() <= until) {
    auto [when, fn] = queue_.pop();
    now_ = when;
    fn();
    ++processed;
  }
  if (now_ < until && !stop_requested_) now_ = until;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [when, fn] = queue_.pop();
  now_ = when;
  fn();
  return true;
}

}  // namespace rb::sim
