// perfbench: one rep of one workload per process.
//
//   perfbench --workload <serve_gray|fabric_churn|lsm_analytics> --seed <n>
//             [--traced] [--no-telemetry] [--trace-out <file.json>]
//   perfbench --fingerprint
//   perfbench --floor
//
// Prints one JSON object: set-up and timed-phase host times, per-op host
// times, work units, the output digest, failed checks, peak RSS and, on
// traced reps, the per-layer metrics. run.py aggregates reps into the
// benchmark's metrics.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "accel/simd/simd.hpp"
#include "common.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace {

void print_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_number(double v) { std::printf("%.17g", std::isfinite(v) ? v : 0.0); }

void print_pairs(const std::vector<std::pair<std::string, double>>& pairs) {
  std::putchar('{');
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_string(pairs[i].first);
    std::putchar(':');
    print_number(pairs[i].second);
  }
  std::putchar('}');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_gray|fabric_churn|lsm_analytics> "
               "--seed <n> [--traced] [--no-telemetry] [--trace-out <file>]\n"
               "       perfbench --fingerprint | --floor\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--no-telemetry") {
      opt.telemetry = false;
    } else if (a == "--trace-out" && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else if (a == "--floor") {
      const pb::HostFloor f = pb::host_floor();
      std::printf("{\"alu_s\":%.9f,\"chase_s\":%.9f,\"sink\":%llu}\n", f.alu_s, f.chase_s,
                  static_cast<unsigned long long>(f.sink));
      return 0;
    } else if (a == "--fingerprint") {
      std::printf("{\"simd_isa\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                  rb::accel::simd::to_string(rb::accel::simd::active_isa()),
                  PB_COMPILER, PB_BUILD_TYPE);
      return 0;
    } else {
      return usage();
    }
  }

  // Fresh process, and fresh process-global obs state all the same.
  rb::obs::Registry::global().reset_for_test();
  rb::obs::RequestTracer::global().clear();
  rb::obs::set_enabled(false);

  pb::SpanLog log{opt.traced};
  pb::RepResult r;
  try {
    if (opt.workload == "serve_gray") {
      r = pb::run_serve_gray(opt, log);
    } else if (opt.workload == "fabric_churn") {
      r = pb::run_fabric_churn(opt, log);
    } else if (opt.workload == "lsm_analytics") {
      r = pb::run_lsm_analytics(opt, log);
    } else {
      return usage();
    }
    if (opt.traced) {
      // Layer probes, outside the timed phase, on every workload.
      r.layer("sim.probe_ns_per_event", pb::probe_sim_ns_per_event(opt.seed));
      r.layer("net.routing.path_ns", pb::probe_route_ns(opt.seed));
      if (!opt.trace_out.empty()) log.write_chrome(opt.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!r.errors.empty() && r.failed_ops == 0) r.failed_ops = r.op_ns.size();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::printf("{\"workload\":");
  print_string(opt.workload);
  std::printf(",\"seed\":%llu,\"traced\":%s,\"telemetry\":%s,\"setup_s\":",
              static_cast<unsigned long long>(opt.seed), opt.traced ? "true" : "false",
              opt.telemetry ? "true" : "false");
  print_number(r.setup_s);
  std::printf(",\"wall_s\":");
  print_number(r.wall_s);
  std::printf(",\"units\":");
  print_number(r.units);
  std::printf(",\"peak_rss_mb\":");
  print_number(static_cast<double>(ru.ru_maxrss) / 1024.0);  // KiB on Linux
  std::printf(",\"failed_ops\":%llu,\"digest\":\"%s\",\"errors\":[",
              static_cast<unsigned long long>(r.failed_ops), r.digest.c_str());
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_string(r.errors[i]);
  }
  std::printf("],\"setup_parts\":");
  print_pairs(r.setup_parts);
  std::printf(",\"layers\":");
  print_pairs(r.layers);
  std::printf(",\"self_shares\":");
  print_pairs(r.self_shares);
  std::printf(",\"op_ns\":[");
  for (std::size_t i = 0; i < r.op_ns.size(); ++i) {
    std::printf(i == 0 ? "%lld" : ",%lld", static_cast<long long>(r.op_ns[i]));
  }
  std::printf("]}\n");
  return 0;
}
