#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace rb::obs {

std::string Registry::make_key(std::string_view name, const Labels& labels) {
  std::string key{name};
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Registry::Entry& Registry::find_or_create(std::string_view name, Labels labels,
                                          MetricSample::Kind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    e.name = std::string{name};
    e.labels = std::move(labels);
    switch (kind) {
      case MetricSample::Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
    }
    it = entries_.emplace(key, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument{"Registry: metric '" + std::string{name} +
                                "' already registered with another kind"};
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kCounter)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kGauge)
              .gauge;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  const std::scoped_lock lock{mutex_};
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge->value();
        break;
    }
    out.push_back(std::move(s));
  }
  // std::map iteration is already name-ordered (labels folded into the key).
  return out;
}

namespace {
const char* kind_name(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
  }
  return "?";
}
}  // namespace

std::string Registry::to_json() const {
  JsonWriter w;
  w.begin_object().key("metrics").begin_array();
  for (const auto& s : snapshot()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("kind").value(kind_name(s.kind));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : s.labels) w.key(k).value(v);
      w.end_object();
    }
    w.key("value").value(s.value);
    w.end_object();
  }
  w.end_array().end_object();
  return w.take();
}

void Registry::reset_for_test() {
  const std::scoped_lock lock{mutex_};
  for (auto& [key, e] : entries_) {
    switch (e.kind) {
      case MetricSample::Kind::kCounter: e.counter->reset(); break;
      case MetricSample::Kind::kGauge: e.gauge->reset(); break;
    }
  }
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

}  // namespace rb::obs
