#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace pb {

std::int32_t SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans nest strictly (RAII scopes and OpTimer), so `id` is on top.
  stack_.pop_back();
}

double SpanLog::covered_seconds(std::int64_t t0, std::int64_t t1) const {
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent != -1) continue;
    const std::int64_t a = std::max(s.start_ns, t0);
    const std::int64_t b = std::min(s.end_ns, t1);
    if (b > a) covered += b - a;  // top-level spans never overlap
  }
  return static_cast<double>(covered) * 1e-9;
}

std::map<std::string, double> SpanLog::self_seconds(std::int64_t t0,
                                                    std::int64_t t1) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < t0 || s.start_ns > t1) continue;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::vector<double> SpanLog::durations_ns(
    std::string_view name, std::pair<std::int64_t, std::int64_t> phase) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.start_ns >= phase.first && s.start_ns <= phase.second) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"cannot write trace " + path};
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete ('X') events in microseconds; nesting on one thread track is
    // what Perfetto draws as the span tree. args carry the explicit ids.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span_id\":%zu,\"parent_span_id\":%" PRId32 "}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error{"cannot write trace " + path};
}

void Digest::mix(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view field, std::uint64_t v) {
  mix(field);
  char buf[8];
  std::memcpy(buf, &v, sizeof v);
  mix({buf, sizeof buf});
}

void Digest::add(std::string_view field, std::int64_t v) {
  add(field, static_cast<std::uint64_t>(v));
}

void Digest::add(std::string_view field, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(field, bits);
}

void Digest::add_bytes(std::string_view field, std::string_view bytes) {
  add(field, static_cast<std::uint64_t>(bytes.size()));
  mix(bytes);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

void attribute(const SpanLog& log, std::pair<std::int64_t, std::int64_t> phase,
               RepResult& out) {
  const double wall = static_cast<double>(phase.second - phase.first) * 1e-9;
  const double covered = log.covered_seconds(phase.first, phase.second);
  out.layer("bench.attributed_share", wall > 0.0 ? covered / wall : 0.0);
  for (const auto& [name, self_s] : log.self_seconds(phase.first, phase.second)) {
    out.self_shares.emplace_back(name, wall > 0.0 ? self_s / wall : 0.0);
  }
  out.self_shares.emplace_back("other", wall > 0.0 ? (wall - covered) / wall : 0.0);
}

}  // namespace pb
