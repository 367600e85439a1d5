// OBS-OVH — proves the observability layer's zero-overhead-when-disabled
// claim on the hottest loop in the repo: max-min fair progressive filling
// (the FlowSimulator::reallocate inner loop). One shared water-fill kernel
// runs under two telemetry tails — matching where the shipping
// instrumentation actually sits (after the fill, never inside it):
//
//  * NoopSink   — an empty telemetry tail: the baseline with no
//                 telemetry statement at all;
//  * GuardedSink — the shipping instrumentation: real registry-backed
//                 counters behind the runtime obs::enabled() check, with
//                 observability left OFF (the default).
//
// The acceptance bar is <2% overhead of the guarded-disabled path over the
// no-op path. A last, report-only section times the enabled path: one
// traced request and one rollup record with telemetry on. Run with
// --json <path> (or RB_BENCH_JSON) for machine output.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "accel/simd/simd.hpp"
#include "bench_util.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/rollup.hpp"
#include "storage/wal.hpp"

namespace {

using rb::obs::Counter;

/// Telemetry exactly as the instrumented stack does it when everything is
/// off: one relaxed atomic load for the metric guard, one for the causal
/// tracer (which hands back an inactive context), and the null-pointer
/// guards the SLO accountant pays for its unattached rollup/alert sinks.
struct GuardedSink {
  Counter* fills;
  rb::obs::Gauge* total_rate;
  rb::obs::Rollup* rollup = nullptr;       // never attached in this bench
  rb::obs::AlertEngine* alerts = nullptr;  // never attached in this bench

  GuardedSink()
      : fills{&rb::obs::Registry::global().counter("bench.fills")},
        total_rate{&rb::obs::Registry::global().gauge("bench.fill_rate")} {}

  void on_fill(double total) {
    if (rb::obs::enabled()) {
      fills->add();
      total_rate->set(total);
    }
    const rb::obs::TraceContext ctx =
        rb::obs::RequestTracer::global().start_trace("fill", 0);
    if (ctx.active()) total_rate->set(total);  // never taken while disabled
    if (rollup != nullptr) rollup->counter("bench.fills").record(0, 1.0);
    if (alerts != nullptr) alerts->record_good(0);
  }
};

struct NoopSink {
  void on_fill(double) {}
};

/// Synthetic max-min fair-share instance mirroring FlowSimulator::reallocate:
/// progressive filling over `flows` flows crossing `links` directed links,
/// each flow on a fixed 4-link pseudo-random path.
struct Instance {
  std::vector<double> capacity;           // per link, bits/s
  std::vector<std::array<int, 4>> paths;  // per flow

  Instance(std::size_t links, std::size_t flows) {
    capacity.resize(links);
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (auto& c : capacity) c = 1e9 + static_cast<double>(next() % 1000) * 1e6;
    paths.resize(flows);
    for (auto& p : paths) {
      for (auto& l : p) l = static_cast<int>(next() % links);
    }
  }
};

/// One full progressive-filling pass; returns the sum of allocated rates so
/// the compiler cannot discard the work. Deliberately NOT templated on the
/// sink: both measured paths run this exact function, so the comparison
/// isolates the per-fill telemetry tail (which is where the shipping
/// instrumentation lives — the fabric's inner loop is untouched too) instead
/// of code-layout luck between two template instantiations.
[[gnu::noinline]] double water_fill(const Instance& in) {
  const std::size_t links = in.capacity.size();
  const std::size_t flows = in.paths.size();
  std::vector<double> remaining = in.capacity;
  std::vector<int> active_on_link(links, 0);
  std::vector<char> fixed(flows, 0);
  std::vector<double> rate(flows, 0.0);

  for (const auto& p : in.paths) {
    for (const int l : p) ++active_on_link[l];
  }

  std::size_t unfixed = flows;
  while (unfixed > 0) {
    // Bottleneck link: min remaining / active.
    double fair = -1.0;
    int bottleneck = -1;
    for (std::size_t l = 0; l < links; ++l) {
      if (active_on_link[l] == 0) continue;
      const double share = remaining[l] / active_on_link[l];
      if (bottleneck < 0 || share < fair) {
        fair = share;
        bottleneck = static_cast<int>(l);
      }
    }
    if (bottleneck < 0) break;
    // Fix every unfixed flow crossing the bottleneck at the fair share.
    std::uint64_t saturated = 0;
    for (std::size_t f = 0; f < flows; ++f) {
      if (fixed[f]) continue;
      bool crosses = false;
      for (const int l : in.paths[f]) {
        if (l == bottleneck) {
          crosses = true;
          break;
        }
      }
      if (!crosses) continue;
      fixed[f] = 1;
      rate[f] = fair;
      --unfixed;
      ++saturated;
      for (const int l : in.paths[f]) {
        remaining[l] -= fair;
        --active_on_link[l];
      }
    }
    if (saturated == 0) break;  // degenerate; avoid spinning
  }
  double total = 0.0;
  for (const double r : rate) total += r;
  return total;
}

/// Telemetry consumes only values the kernel computes anyway, exactly like
/// the fabric's gauge update consuming its already-built allocation map.
template <typename Sink>
double time_once_us(const Instance& in, Sink& sink, int reps,
                    double& checksum) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    const double total = water_fill(in);
    sink.on_fill(total);
    checksum += total;
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

/// --- Query-operator instrumentation -----------------------------------------
//
// Same claim, second hot loop: the vectorized query engine's per-batch
// telemetry tail (query/exec/operators.hpp). Operator::push/emit mirror
// batch and row counts into registry counters strictly behind the
// obs::enabled() guard — a handful of adds per BATCH, never per row. The
// kernel below is a batch filter+sum pass shaped like FilterInt feeding an
// aggregate; the guarded sink pays exactly the shipping tail (one relaxed
// load, branch not taken) per batch.

struct OpGuardedSink {
  Counter* rows_in;
  Counter* rows_out;
  Counter* batches;

  OpGuardedSink() {
    auto& reg = rb::obs::Registry::global();
    const rb::obs::Labels labels{{"op", "bench_filter"}};
    rows_in = &reg.counter("query.rows_in", labels);
    rows_out = &reg.counter("query.rows_out", labels);
    batches = &reg.counter("query.batches", labels);
  }

  void on_batch(std::uint64_t in, std::uint64_t out) {
    if (rb::obs::enabled()) {
      batches->add();
      rows_in->add(in);
      rows_out->add(out);
    }
  }
};

struct OpNoopSink {
  void on_batch(std::uint64_t, std::uint64_t) {}
};

struct BatchInstance {
  std::vector<std::int64_t> values;
  std::size_t batch_size;

  BatchInstance(std::size_t rows, std::size_t batch) : batch_size{batch} {
    values.resize(rows);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::int64_t>(x % 1000);
    }
  }
};

/// One batch of work: selection-building filter then a sum over the
/// selected rows. Deliberately NOT templated on the sink (same reason as
/// water_fill above): both measured paths run this exact function, so the
/// comparison isolates the per-batch telemetry tail, which is where the
/// engine's instrumentation sits (Operator::push, after do_push returns).
[[gnu::noinline]] std::int64_t filter_sum_batch(
    const std::int64_t* values, std::size_t n,
    std::vector<std::uint32_t>& sel) {
  sel.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] >= 500) sel.push_back(static_cast<std::uint32_t>(i));
  }
  std::int64_t total = 0;
  for (const std::uint32_t i : sel) total += values[i];
  return total;
}

template <typename Sink>
double time_batches_us(const BatchInstance& in, Sink& sink, int reps,
                       double& checksum) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint32_t> sel;
  sel.reserve(in.batch_size);
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    std::int64_t total = 0;
    for (std::size_t base = 0; base < in.values.size();
         base += in.batch_size) {
      const std::size_t n = std::min(in.batch_size, in.values.size() - base);
      total += filter_sum_batch(in.values.data() + base, n, sel);
      sink.on_batch(n, sel.size());
    }
    checksum += static_cast<double>(total);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

/// --- Durable-store WAL-append instrumentation -------------------------------
//
// Same claim, third hot loop: the durable LSM's per-put telemetry tail
// (storage/lsm.cpp). Every put/erase frames a record into the WAL and then
// mirrors the append into storage.wal_appends strictly behind the
// obs::enabled() guard. The kernel below is the shipping frame encoder
// (encode_wal_record: CRC32C over the payload plus the length header); the
// guarded sink pays exactly the put() tail per record.

struct WalGuardedSink {
  Counter* appends;
  Counter* bytes;

  WalGuardedSink() {
    auto& reg = rb::obs::Registry::global();
    appends = &reg.counter("storage.wal_appends");
    bytes = &reg.counter("storage.wal_bytes");
  }

  void on_append(std::uint64_t framed_bytes) {
    if (rb::obs::enabled()) {
      appends->add();
      bytes->add(framed_bytes);
    }
  }
};

struct WalNoopSink {
  void on_append(std::uint64_t) {}
};

struct WalInstance {
  std::vector<rb::storage::WalRecord> records;

  explicit WalInstance(std::size_t n) {
    records.resize(n);
    std::uint64_t x = 0xC2B2AE3D27D4EB4FULL;
    for (auto& r : records) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      r.key = "key-" + std::to_string(x % 100000);
      r.value.assign(32, static_cast<char>('a' + x % 26));
    }
  }
};

/// One record framed (CRC32C + header + payload) — the shipping encoder,
/// deliberately NOT templated on the sink (same reason as water_fill above).
[[gnu::noinline]] std::size_t frame_record(const rb::storage::WalRecord& r) {
  return rb::storage::encode_wal_record(r).size();
}

template <typename Sink>
double time_wal_us(const WalInstance& in, Sink& sink, int reps,
                   double& checksum) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    std::uint64_t total = 0;
    for (const auto& record : in.records) {
      const std::size_t framed = frame_record(record);
      sink.on_append(framed);
      total += framed;
    }
    checksum += static_cast<double>(total);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

/// --- SIMD selection-scan instrumentation ------------------------------------
//
// Same claim, fourth hot loop: the dispatched SIMD kernel layer's per-batch
// telemetry tail (query/exec/operators.cpp). FilterInt's range path mirrors
// rows scanned into accel.simd_rows{kernel=select_between} strictly behind
// the obs::enabled() guard — one add per BATCH, after the kernel returns.
// The kernel below is the shipping dispatched select_between (AVX-512 on
// capable hosts), the fastest loop in the repo and therefore the hardest
// place for the disabled tail to hide.

struct SimdGuardedSink {
  Counter* rows;

  SimdGuardedSink()
      : rows{&rb::obs::Registry::global().counter(
            "accel.simd_rows",
            rb::obs::Labels{{"kernel", "select_between"}})} {}

  void on_batch(std::uint64_t n) {
    if (rb::obs::enabled()) rows->add(n);
  }
};

struct SimdNoopSink {
  void on_batch(std::uint64_t) {}
};

struct SimdInstance {
  // 64B-aligned like the engine's column buffers; an unaligned 64B vector
  // load splits two cache lines and halves effective L1 bandwidth.
  std::int64_t* values;
  std::uint32_t* sel;
  std::size_t rows;
  std::size_t batch;

  SimdInstance(std::size_t n, std::size_t b)
      : values{static_cast<std::int64_t*>(
            std::aligned_alloc(64, n * sizeof(std::int64_t)))},
        sel{static_cast<std::uint32_t*>(
            std::aligned_alloc(64, ((n * sizeof(std::uint32_t) + 63) / 64) *
                                       64))},
        rows{n},
        batch{b} {
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::size_t i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      values[i] = static_cast<std::int64_t>(x % 1000);
    }
  }
  ~SimdInstance() {
    std::free(values);
    std::free(sel);
  }
  SimdInstance(const SimdInstance&) = delete;
  SimdInstance& operator=(const SimdInstance&) = delete;
};

/// One batch through the dispatched kernel — deliberately NOT templated on
/// the sink (same reason as water_fill above).
[[gnu::noinline]] std::size_t simd_scan_batch(const std::int64_t* values,
                                              std::size_t n,
                                              std::uint32_t* sel) {
  return rb::accel::simd::kernels().select_between(values, n, 250, 750, sel);
}

template <typename Sink>
double time_simd_us(const SimdInstance& in, Sink& sink, int reps,
                    double& checksum) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    std::size_t total = 0;
    for (std::size_t base = 0; base < in.rows; base += in.batch) {
      const std::size_t n = std::min(in.batch, in.rows - base);
      total += simd_scan_batch(in.values + base, n, in.sel);
      sink.on_batch(n);
    }
    checksum += static_cast<double>(total);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rb;
  bench::heading("OBS-OVH",
                 "Disabled-telemetry overhead on the max-min fair-share loop");
  bench::Report report{"obs_overhead", argc, argv};

  constexpr std::size_t kLinks = 128;
  constexpr std::size_t kFlows = 1024;
  constexpr int kReps = 20;
  report.config("links", std::int64_t{kLinks});
  report.config("flows", std::int64_t{kFlows});
  report.config("reps", std::int64_t{kReps});

  obs::set_enabled(false);  // the shipping default; makes the claim explicit
  obs::RequestTracer::global().set_enabled(false);
  const Instance instance{kLinks, kFlows};
  double checksum = 0.0;

  NoopSink noop;
  GuardedSink guarded;  // resolves its registry counters up front
  (void)water_fill(instance);  // warm caches before timing

  // Time the two paths back-to-back in pairs (alternating which goes first)
  // and take the median of the per-pair ratios: frequency drift and
  // scheduler noise hit both halves of a pair, so the ratio is far more
  // stable than two independent minima.
  constexpr int kAttempts = 41;
  std::vector<double> ratios;
  double noop_us = 1e300, guarded_us = 1e300;
  ratios.reserve(kAttempts);
  for (int a = 0; a < kAttempts; ++a) {
    double n = 0.0, g = 0.0;
    if (a % 2 == 0) {
      n = time_once_us(instance, noop, kReps, checksum);
      g = time_once_us(instance, guarded, kReps, checksum);
    } else {
      g = time_once_us(instance, guarded, kReps, checksum);
      n = time_once_us(instance, noop, kReps, checksum);
    }
    noop_us = std::min(noop_us, n);
    guarded_us = std::min(guarded_us, g);
    ratios.push_back(g / n);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (ratios[kAttempts / 2] - 1.0) * 100.0;

  std::printf("%-28s %14.1f us/fill\n", "no-op sink (compile-time)", noop_us);
  std::printf("%-28s %14.1f us/fill\n", "guarded sink (obs disabled)",
              guarded_us);
  std::printf("%-28s %+14.2f %%   (accept: < 2%%)\n", "overhead", overhead_pct);
  std::printf("(checksum %.3e)\n", checksum);

  report.metric("noop_us_per_fill", noop_us);
  report.metric("guarded_disabled_us_per_fill", guarded_us);
  report.metric("overhead_pct", overhead_pct);
  report.metric("pass", overhead_pct < 2.0);

  bench::note("disabled observability costs one relaxed atomic load per");
  bench::note("reallocation pass — noise-level on the water-fill kernel.");

  // --- Query-operator per-batch tail ---------------------------------------
  bench::heading("OBS-OVH (query)",
                 "Disabled-telemetry overhead on the vectorized batch loop");
  constexpr std::size_t kRows = 1 << 20;
  constexpr std::size_t kBatch = 1024;
  constexpr int kBatchReps = 20;
  report.config("query_rows", std::int64_t{kRows});
  report.config("query_batch", std::int64_t{kBatch});

  const BatchInstance batch_instance{kRows, kBatch};
  OpNoopSink op_noop;
  OpGuardedSink op_guarded;
  (void)time_batches_us(batch_instance, op_noop, 1, checksum);  // warm caches

  std::vector<double> op_ratios;
  double op_noop_us = 1e300, op_guarded_us = 1e300;
  op_ratios.reserve(kAttempts);
  for (int a = 0; a < kAttempts; ++a) {
    double n = 0.0, g = 0.0;
    if (a % 2 == 0) {
      n = time_batches_us(batch_instance, op_noop, kBatchReps, checksum);
      g = time_batches_us(batch_instance, op_guarded, kBatchReps, checksum);
    } else {
      g = time_batches_us(batch_instance, op_guarded, kBatchReps, checksum);
      n = time_batches_us(batch_instance, op_noop, kBatchReps, checksum);
    }
    op_noop_us = std::min(op_noop_us, n);
    op_guarded_us = std::min(op_guarded_us, g);
    op_ratios.push_back(g / n);
  }
  std::sort(op_ratios.begin(), op_ratios.end());
  const double op_overhead_pct = (op_ratios[kAttempts / 2] - 1.0) * 100.0;

  std::printf("%-28s %14.1f us/pass\n", "no-op sink (compile-time)",
              op_noop_us);
  std::printf("%-28s %14.1f us/pass\n", "guarded sink (obs disabled)",
              op_guarded_us);
  std::printf("%-28s %+14.2f %%   (accept: < 2%%)\n", "overhead",
              op_overhead_pct);
  std::printf("(checksum %.3e)\n", checksum);

  report.metric("op_noop_us_per_pass", op_noop_us);
  report.metric("op_guarded_disabled_us_per_pass", op_guarded_us);
  report.metric("op_overhead_pct", op_overhead_pct);
  report.metric("op_pass", op_overhead_pct < 2.0);

  bench::note("operator counters cost one relaxed atomic load per batch —");
  bench::note("amortized over 1024 rows, noise-level on the filter kernel.");

  // --- Durable-store per-put WAL tail --------------------------------------
  bench::heading("OBS-OVH (wal)",
                 "Disabled-telemetry overhead on the WAL record framer");
  constexpr std::size_t kWalRecords = 4096;
  constexpr int kWalReps = 20;
  report.config("wal_records", std::int64_t{kWalRecords});

  const WalInstance wal_instance{kWalRecords};
  WalNoopSink wal_noop;
  WalGuardedSink wal_guarded;
  (void)time_wal_us(wal_instance, wal_noop, 1, checksum);  // warm caches

  std::vector<double> wal_ratios;
  double wal_noop_us = 1e300, wal_guarded_us = 1e300;
  wal_ratios.reserve(kAttempts);
  for (int a = 0; a < kAttempts; ++a) {
    double n = 0.0, g = 0.0;
    if (a % 2 == 0) {
      n = time_wal_us(wal_instance, wal_noop, kWalReps, checksum);
      g = time_wal_us(wal_instance, wal_guarded, kWalReps, checksum);
    } else {
      g = time_wal_us(wal_instance, wal_guarded, kWalReps, checksum);
      n = time_wal_us(wal_instance, wal_noop, kWalReps, checksum);
    }
    wal_noop_us = std::min(wal_noop_us, n);
    wal_guarded_us = std::min(wal_guarded_us, g);
    wal_ratios.push_back(g / n);
  }
  std::sort(wal_ratios.begin(), wal_ratios.end());
  const double wal_overhead_pct = (wal_ratios[kAttempts / 2] - 1.0) * 100.0;

  std::printf("%-28s %14.1f us/pass\n", "no-op sink (compile-time)",
              wal_noop_us);
  std::printf("%-28s %14.1f us/pass\n", "guarded sink (obs disabled)",
              wal_guarded_us);
  std::printf("%-28s %+14.2f %%   (accept: < 2%%)\n", "overhead",
              wal_overhead_pct);
  std::printf("(checksum %.3e)\n", checksum);

  report.metric("wal_noop_us_per_pass", wal_noop_us);
  report.metric("wal_guarded_disabled_us_per_pass", wal_guarded_us);
  report.metric("wal_overhead_pct", wal_overhead_pct);
  report.metric("wal_pass", wal_overhead_pct < 2.0);

  bench::note("the storage.wal_appends mirror costs one relaxed atomic load");
  bench::note("per put — noise-level next to the CRC32C frame encode.");

  // --- SIMD selection-scan per-batch tail -----------------------------------
  // Cache-resident sizing on purpose: this is the regime where the kernel
  // is fastest (GRows/s, not DRAM bandwidth) and the per-batch tail is
  // therefore proportionally largest — the hardest version of the <2% bar.
  // (A DRAM-streaming sweep would evict the g_enabled line between batches
  // and measure the cache miss, not the shipping guard.)
  bench::heading("OBS-OVH (simd)",
                 "Disabled-telemetry overhead on the SIMD selection scan");
  constexpr std::size_t kSimdRows = 1 << 14;
  constexpr std::size_t kSimdBatch = 1024;
  constexpr int kSimdReps = 500;
  report.config("simd_rows", std::int64_t{kSimdRows});
  report.config("simd_batch", std::int64_t{kSimdBatch});
  report.config("simd_isa", accel::simd::to_string(accel::simd::active_isa()));

  const SimdInstance simd_instance{kSimdRows, kSimdBatch};
  SimdNoopSink simd_noop;
  SimdGuardedSink simd_guarded;
  (void)time_simd_us(simd_instance, simd_noop, 1, checksum);  // warm caches

  std::vector<double> simd_ratios;
  double simd_noop_us = 1e300, simd_guarded_us = 1e300;
  simd_ratios.reserve(kAttempts);
  for (int a = 0; a < kAttempts; ++a) {
    double n = 0.0, g = 0.0;
    if (a % 2 == 0) {
      n = time_simd_us(simd_instance, simd_noop, kSimdReps, checksum);
      g = time_simd_us(simd_instance, simd_guarded, kSimdReps, checksum);
    } else {
      g = time_simd_us(simd_instance, simd_guarded, kSimdReps, checksum);
      n = time_simd_us(simd_instance, simd_noop, kSimdReps, checksum);
    }
    simd_noop_us = std::min(simd_noop_us, n);
    simd_guarded_us = std::min(simd_guarded_us, g);
    simd_ratios.push_back(g / n);
  }
  std::sort(simd_ratios.begin(), simd_ratios.end());
  const double simd_overhead_pct = (simd_ratios[kAttempts / 2] - 1.0) * 100.0;

  std::printf("%-28s %14.1f us/pass  (%s kernel)\n",
              "no-op sink (compile-time)", simd_noop_us,
              accel::simd::to_string(accel::simd::active_isa()));
  std::printf("%-28s %14.1f us/pass\n", "guarded sink (obs disabled)",
              simd_guarded_us);
  std::printf("%-28s %+14.2f %%   (accept: < 2%%)\n", "overhead",
              simd_overhead_pct);
  std::printf("(checksum %.3e)\n", checksum);

  report.metric("simd_noop_us_per_pass", simd_noop_us);
  report.metric("simd_guarded_disabled_us_per_pass", simd_guarded_us);
  report.metric("simd_overhead_pct", simd_overhead_pct);
  report.metric("simd_pass", simd_overhead_pct < 2.0);
  report.metric("all_pass", overhead_pct < 2.0 && op_overhead_pct < 2.0 &&
                                wal_overhead_pct < 2.0 &&
                                simd_overhead_pct < 2.0);

  bench::note("the accel.simd_rows mirror costs one relaxed atomic load per");
  bench::note("1024-row batch — noise-level even on the widest-vector scan.");

  // --- Enabled path (report only) -------------------------------------------
  // What telemetry costs when it is ON: one traced request shaped like the
  // serving plane's, and one rollup record. No gate; the numbers show the
  // effect of a change to the tracer or the rollups.
  bench::heading("OBS-OVH (enabled)",
                 "Enabled-path cost of the causal tracer and the rollups");
  constexpr int kTraces = 20'000;
  constexpr int kRecords = 1'000'000;
  constexpr int kEnabledAttempts = 7;
  report.config("enabled_traces", std::int64_t{kTraces});
  report.config("enabled_records", std::int64_t{kRecords});

  using Clock = std::chrono::steady_clock;
  using obs::Segment;
  auto& tracer = obs::RequestTracer::global();
  obs::ExemplarParams ep;
  ep.max_exemplars = 64;
  tracer.set_params(ep);
  tracer.set_enabled(true);
  // start_trace + 6 spans (attempt, net.out, queue, service, lsm.get,
  // net.response) + mark_won + finish, as FrontDoor/ReplicaServer emit them.
  const auto traced_request = [&tracer](std::int64_t t) {
    const obs::TraceContext root = tracer.start_trace("get", t);
    const std::uint64_t attempt =
        tracer.begin_span(root, Segment::kAttempt, "attempt", t, 1);
    const obs::TraceContext actx{root.trace_id, attempt};
    tracer.add_span(actx, Segment::kNetwork, "net.out", t, t + 10);
    const std::uint64_t queue =
        tracer.begin_span(actx, Segment::kQueue, "queue", t + 10, 1);
    tracer.end_span(root.trace_id, queue, t + 20);
    const std::uint64_t service =
        tracer.begin_span(actx, Segment::kService, "service", t + 20, 1);
    tracer.add_span({root.trace_id, service}, Segment::kStorage, "lsm.get",
                    t + 25, t + 25, 0);
    tracer.end_span(root.trace_id, service, t + 40);
    tracer.add_span(actx, Segment::kNetwork, "net.response", t + 40, t + 50);
    tracer.end_span(root.trace_id, attempt, t + 50);
    tracer.mark_won(root.trace_id, attempt);
    tracer.finish(root.trace_id, t + 50 + (t % 97),
                  obs::TraceOutcome::kCompleted);
  };
  double trace_ns = 1e300;
  for (int a = 0; a < kEnabledAttempts; ++a) {
    tracer.clear();
    const auto t0 = Clock::now();
    for (int i = 0; i < kTraces; ++i) traced_request(std::int64_t{i} * 100);
    const auto t1 = Clock::now();
    trace_ns = std::min(
        trace_ns, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      kTraces);
  }
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_params(obs::ExemplarParams{});

  double record_ns = 1e300;
  for (int a = 0; a < kEnabledAttempts; ++a) {
    // 5 ms windows of picoseconds, one record per simulated microsecond.
    obs::WindowedSeries series{5'000'000'000, obs::WindowedSeries::Kind::kValue};
    const auto t0 = Clock::now();
    for (int i = 0; i < kRecords; ++i) {
      series.record(std::int64_t{i} * 1'000'000, static_cast<double>(i & 63));
    }
    const auto t1 = Clock::now();
    checksum += series.sum_range(0, std::int64_t{kRecords} * 1'000'000);
    record_ns = std::min(
        record_ns, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                       kRecords);
  }

  std::printf("%-28s %14.1f ns/request\n", "traced request (enabled)",
              trace_ns);
  std::printf("%-28s %14.1f ns/record\n", "WindowedSeries::record",
              record_ns);
  std::printf("(checksum %.3e)\n", checksum);
  report.metric("enabled_ns_per_traced_request", trace_ns);
  report.metric("enabled_ns_per_series_record", record_ns);

  bench::note("report only: start_trace + 6 spans + mark_won + finish per");
  bench::note("request, and one windowed record, with telemetry on.");
  return 0;
}
