#include "accel/simd/measure.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

namespace rb::accel::simd {

namespace {

using Clock = std::chrono::steady_clock;

/// 64-byte-aligned array: cache-line-aligned loads are the kernels' design
/// point (an unaligned 64B load splits across two lines and halves L1
/// bandwidth on most cores), and columnar batches align the same way.
template <typename T>
struct AlignedBuf {
  explicit AlignedBuf(std::size_t n)
      : p{static_cast<T*>(std::aligned_alloc(64, ((n * sizeof(T) + 63) / 64) * 64)),
          &std::free} {}
  T* data() noexcept { return p.get(); }
  std::unique_ptr<T[], decltype(&std::free)> p;
};

/// Guard that forces an ISA for the timed region and restores on exit.
class IsaGuard {
 public:
  explicit IsaGuard(Isa want) : prev_{active_isa()}, ok_{set_isa(want)} {}
  ~IsaGuard() { set_isa(prev_); }
  bool ok() const noexcept { return ok_; }

 private:
  Isa prev_;
  bool ok_;
};

/// Timed attempts per side (the bench reports "best of 7").
constexpr int kRounds = 7;

/// Best-of-kRounds times of `fn(kernels())` under the scalar kernels and
/// under `tuned`, divided by `reps`. Scalar and tuned attempts alternate, so
/// a slow spell of the host lands on both sides instead of skewing the
/// ratio. nullopt when `tuned` cannot be selected.
std::optional<MeasuredKernel> measure_ab(Isa tuned, int reps, const auto& fn) {
  double best[2] = {1e300, 1e300};
  for (int a = 0; a < kRounds; ++a) {
    for (int side = 0; side < 2; ++side) {
      IsaGuard g{side == 0 ? Isa::kScalar : tuned};
      if (!g.ok()) return std::nullopt;
      const Kernels& k = kernels();
      const auto t0 = Clock::now();
      for (int rep = 0; rep < reps; ++rep) fn(k);
      const auto t1 = Clock::now();
      best[side] = std::min(
          best[side], std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  MeasuredKernel r;
  r.isa = tuned;
  r.scalar_ms = best[0] / reps;
  r.tuned_ms = best[1] / reps;
  r.speedup = r.tuned_ms > 0.0 ? r.scalar_ms / r.tuned_ms : 1.0;
  return r;
}

std::uint64_t splitmix64(std::uint64_t& s) noexcept {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::optional<MeasuredKernel> measure_select_scan(std::uint64_t rows) {
  const Isa best = best_supported();
  if (best == Isa::kScalar) return std::nullopt;

  AlignedBuf<std::int64_t> values{rows};
  std::uint64_t seed = 42;
  for (std::uint64_t i = 0; i < rows; ++i) {
    values.data()[i] = static_cast<std::int64_t>(splitmix64(seed) % 1000);
  }
  AlignedBuf<std::uint32_t> out{rows};
  const std::int64_t lo = 250, hi = 750;  // ~50% selectivity

  // Keep each timed sample around a millisecond even for L1-resident row
  // counts; per-rep times come out of the division in measure_ab.
  const int reps = static_cast<int>((1u << 22) / rows + 1);
  volatile std::size_t sink = 0;
  return measure_ab(best, reps, [&](const Kernels& k) {
    sink = k.select_between(values.data(), rows, lo, hi, out.data());
  });
}

std::optional<MeasuredKernel> measure_join_probe(std::uint64_t probe_rows) {
  const Isa best = best_supported();
  if (best == Isa::kScalar) return std::nullopt;

  // Build a HashTable64-shaped slot array directly: power-of-two capacity,
  // load factor <= 0.5, multiplicative hashing + linear probing.
  const std::uint64_t build_rows = probe_rows / 2;
  std::uint64_t capacity = 16;
  while (capacity < build_rows * 2) capacity *= 2;
  const std::uint64_t mask = capacity - 1;
  AlignedBuf<std::uint64_t> slot_words{capacity * 2};
  for (std::uint64_t i = 0; i < capacity * 2; ++i) slot_words.data()[i] = 0;
  for (std::uint64_t i = 0; i < build_rows; ++i) {
    const std::uint64_t k = i + 1;  // non-zero keys
    std::uint64_t pos = (k * kHashMul) & mask;
    while (slot_words.data()[pos * 2] != kHashEmpty) pos = (pos + 1) & mask;
    slot_words.data()[pos * 2] = k;
    slot_words.data()[pos * 2 + 1] = i;
  }

  // ~50% hit rate: half the probe keys exist, half miss.
  AlignedBuf<std::uint64_t> keys{probe_rows};
  std::uint64_t seed = 7;
  for (std::uint64_t i = 0; i < probe_rows; ++i) {
    const std::uint64_t r = splitmix64(seed);
    keys.data()[i] =
        (r & 1) != 0 ? (r % build_rows) + 1 : build_rows + 1 + (r % build_rows);
  }
  AlignedBuf<std::uint64_t> values{probe_rows};
  AlignedBuf<std::uint8_t> found{probe_rows};

  const int reps = static_cast<int>((1u << 19) / probe_rows + 1);
  return measure_ab(best, reps, [&](const Kernels& k) {
    k.hash_find_batch(slot_words.data(), mask, keys.data(), probe_rows,
                      values.data(), found.data());
  });
}

}  // namespace rb::accel::simd
