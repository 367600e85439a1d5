#include "obs/rollup.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace rb::obs {

namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

const char* kind_name(WindowedSeries::Kind k) noexcept {
  switch (k) {
    case WindowedSeries::Kind::kCounter: return "counter";
    case WindowedSeries::Kind::kValue: return "value";
  }
  return "value";
}

}  // namespace

WindowedSeries::WindowedSeries(std::int64_t window, Kind kind)
    : window_(window), kind_(kind) {
  if (window_ <= 0) throw std::invalid_argument{"window width must be > 0"};
}

void WindowedSeries::add(std::int64_t ts, double v, std::uint64_t n) noexcept {
  const std::int64_t idx = floor_div(ts, window_);
  if (windows_.empty()) first_ = idx;
  if (idx < first_) {
    windows_.insert(windows_.begin(), static_cast<std::size_t>(first_ - idx),
                    WindowStats{});
    first_ = idx;
  }
  const auto i = static_cast<std::size_t>(idx - first_);
  if (i >= windows_.size()) windows_.resize(i + 1);
  WindowStats& w = windows_[i];
  if (w.count == 0) {
    w.min = v;
    w.max = v;
  } else {
    w.min = std::min(w.min, v);
    w.max = std::max(w.max, v);
  }
  w.count += n;
  w.sum += v * static_cast<double>(n);
  w.last = v;
}

std::vector<WindowStats> WindowedSeries::windows() const {
  std::vector<WindowStats> out = windows_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].start = (first_ + static_cast<std::int64_t>(i)) * window_;
  }
  return out;
}

double WindowedSeries::sum_range(std::int64_t from, std::int64_t to) const {
  if (to <= from || windows_.empty()) return 0.0;
  const std::int64_t last = first_ + static_cast<std::int64_t>(windows_.size()) - 1;
  const std::int64_t lo = std::max(floor_div(from, window_), first_);
  const std::int64_t hi = std::min(floor_div(to - 1, window_), last);
  double total = 0.0;
  for (std::int64_t idx = lo; idx <= hi; ++idx) {
    total += static_cast<double>(windows_[static_cast<std::size_t>(idx - first_)].count);
  }
  return total;
}

Rollup::Rollup(std::int64_t window) : window_(window) {
  if (window_ <= 0) throw std::invalid_argument{"window width must be > 0"};
}

WindowedSeries& Rollup::find_or_create(std::string_view name,
                                       WindowedSeries::Kind kind) {
  auto it = series_.find(std::string{name});
  if (it != series_.end()) {
    if (it->second.kind() != kind) {
      throw std::invalid_argument{"rollup series kind mismatch: " +
                                  std::string{name}};
    }
    return it->second;
  }
  auto [ins, ok] =
      series_.emplace(std::string{name}, WindowedSeries{window_, kind});
  return ins->second;
}

WindowedSeries& Rollup::counter(std::string_view name) {
  return find_or_create(name, WindowedSeries::Kind::kCounter);
}
WindowedSeries& Rollup::value(std::string_view name) {
  return find_or_create(name, WindowedSeries::Kind::kValue);
}

std::vector<std::string> Rollup::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

const WindowedSeries* Rollup::find(std::string_view name) const {
  auto it = series_.find(std::string{name});
  return it == series_.end() ? nullptr : &it->second;
}

std::string Rollup::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("window").value(static_cast<std::int64_t>(window_));
  w.key("series").begin_array();
  for (const auto& [name, s] : series_) {
    w.begin_object();
    w.key("name").value(name);
    w.key("kind").value(kind_name(s.kind()));
    w.key("windows").begin_array();
    for (const WindowStats& ws : s.windows()) {
      w.begin_object();
      w.key("start").value(ws.start);
      w.key("count").value(static_cast<std::uint64_t>(ws.count));
      w.key("sum").value(ws.sum);
      w.key("min").value(ws.min);
      w.key("max").value(ws.max);
      w.key("last").value(ws.last);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Rollup::clear() {
  for (auto& [name, s] : series_) s.clear();
}

/// --- AlertEngine ------------------------------------------------------------

AlertEngine::AlertEngine(AlertParams params)
    : params_(std::move(params)),
      good_(params_.window, WindowedSeries::Kind::kCounter),
      bad_(params_.window, WindowedSeries::Kind::kCounter) {
  if (params_.objective <= 0.0 || params_.objective >= 1.0) {
    throw std::invalid_argument{"SLO objective must be in (0, 1)"};
  }
  for (const BurnRateRule& r : params_.rules) {
    if (r.short_windows == 0 || r.long_windows < r.short_windows) {
      throw std::invalid_argument{"burn-rate rule windows misconfigured"};
    }
  }
}

void AlertEngine::record_good(std::int64_t ts, std::uint64_t n) noexcept {
  if (n > 0) good_.add(ts, 1.0, n);
}

void AlertEngine::record_bad(std::int64_t ts, std::uint64_t n) noexcept {
  if (n > 0) bad_.add(ts, 1.0, n);
}

AlertEngine::Burn AlertEngine::burn_over(std::int64_t begin,
                                         std::int64_t end) const {
  const double bad = bad_.sum_range(begin, end);
  const double total = good_.sum_range(begin, end) + bad;
  const double budget = 1.0 - params_.objective;
  return {total > 0.0 ? (bad / total) / budget : 0.0, total};
}

double AlertEngine::burn_rate(std::int64_t ts,
                              std::size_t lookback_windows) const {
  const std::int64_t w = params_.window;
  const std::int64_t end = (floor_div(ts, w) + 1) * w;
  return burn_over(end - static_cast<std::int64_t>(lookback_windows) * w, end)
      .rate;
}

std::vector<Alert> AlertEngine::alerts(std::int64_t horizon) const {
  std::vector<Alert> out;
  const std::int64_t w = params_.window;
  const std::int64_t last_window = floor_div(horizon, w);
  for (const BurnRateRule& rule : params_.rules) {
    bool active = false;
    std::size_t active_idx = 0;
    for (std::int64_t idx = 0; idx <= last_window; ++idx) {
      const std::int64_t end = (idx + 1) * w;
      if (end > horizon) break;  // evaluate closed windows only
      const Burn short_burn = burn_over(
          end - static_cast<std::int64_t>(rule.short_windows) * w, end);
      const Burn long_burn = burn_over(
          end - static_cast<std::int64_t>(rule.long_windows) * w, end);
      const double burn_short = short_burn.rate;
      const double burn_long = long_burn.rate;

      if (!active) {
        if (long_burn.events >= static_cast<double>(params_.min_events) &&
            burn_short >= rule.burn_threshold &&
            burn_long >= rule.burn_threshold) {
          Alert a;
          a.rule = rule.name;
          a.fired_at = end;
          a.burn_short = burn_short;
          a.burn_long = burn_long;
          out.push_back(std::move(a));
          active = true;
          active_idx = out.size() - 1;
        }
      } else if (burn_short < rule.burn_threshold) {
        out[active_idx].cleared_at = end;
        active = false;
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Alert& a, const Alert& b) {
                     return a.fired_at < b.fired_at;
                   });
  return out;
}

void AlertEngine::clear() {
  good_.clear();
  bad_.clear();
}

}  // namespace rb::obs
