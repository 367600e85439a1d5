#pragma once
// Runtime-dispatched SIMD kernel layer for the analytics building blocks
// (Rec 10: replace "often-required functional building blocks" with tuned
// implementations). One portable interface — a table of kernel function
// pointers — backed by per-ISA implementations (AVX2, AVX-512, NEON) with
// the scalar code as the always-correct fallback.
//
// Dispatch happens once, on first use: CPUID/feature detection picks the
// widest ISA both the CPU and this build support. The RB_SIMD environment
// variable ({scalar,avx2,avx512,neon}) overrides the choice for testing
// (forced-scalar CI legs, differential suites); an unsupported request
// falls back to the best supported level with a one-time stderr warning.
// set_isa() is the in-process test hook the differential tests use to walk
// every reachable level without respawning.
//
// Kernel contracts are bit-exact with the scalar twins: identical outputs
// for identical inputs on every ISA, including the HashTable64 key-0
// sentinel remap, wraparound (two's-complement) int64 sums, and ascending
// selection-index order. The differential tests in
// tests/accel/test_simd_differential.cpp enforce this.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rb::accel::simd {

/// Open-addressing table constants shared with accel::HashTable64 so the
/// vectorized probe hashes exactly like the scalar one.
inline constexpr std::uint64_t kHashEmpty = 0;
inline constexpr std::uint64_t kHashZeroSentinel = 0x8000'0000'0000'0000ULL;
inline constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

const char* to_string(Isa isa) noexcept;

/// Parse an RB_SIMD-style name; nullopt on unknown input.
std::optional<Isa> parse_isa(std::string_view name) noexcept;

/// Whether the running CPU *and* this build can execute `isa` kernels.
bool supported(Isa isa) noexcept;

/// Widest supported level (kScalar when no SIMD unit is usable).
Isa best_supported() noexcept;

/// Per-ISA kernel table. All kernels are total functions over their inputs
/// (n == 0 is legal) and never allocate; callers own every buffer.
struct Kernels {
  Isa isa = Isa::kScalar;

  /// Write the indices i (ascending, 0-based) with lo <= values[i] < hi
  /// into `out` (capacity >= n); returns the match count.
  std::size_t (*select_between)(const std::int64_t* values, std::size_t n,
                                std::int64_t lo, std::int64_t hi,
                                std::uint32_t* out) noexcept;

  /// Count of i with lo <= values[i] < hi.
  std::size_t (*count_between)(const std::int64_t* values, std::size_t n,
                               std::int64_t lo, std::int64_t hi) noexcept;

  /// Sum of values[indices[i]] with two's-complement wraparound (the
  /// accumulator is uint64 internally, so overflow is defined and
  /// identical on every ISA). Indices must be < 2^31.
  std::int64_t (*sum_selected)(const std::int64_t* values,
                               const std::uint32_t* indices,
                               std::size_t n) noexcept;

  /// Write the indices i with values[i] > threshold into `out`
  /// (capacity >= n); returns the match count. The top-k sift filter.
  std::size_t (*select_greater)(const std::int64_t* values, std::size_t n,
                                std::int64_t threshold,
                                std::uint32_t* out) noexcept;

  /// Write the indices i with values[i] < threshold into `out`.
  std::size_t (*select_less)(const std::int64_t* values, std::size_t n,
                             std::int64_t threshold,
                             std::uint32_t* out) noexcept;

  /// Vertical probe of an open-addressing HashTable64 slot array:
  /// `slot_words` is the raw {key, value} pair array ((mask+1)*2 words),
  /// `mask` the capacity-1 power-of-two mask. For each of the n user keys
  /// (key 0 is remapped to the sentinel exactly like HashTable64::encode):
  /// found[i] = 1 and values[i] = stored value when present, else
  /// found[i] = 0 and values[i] = 0. Multiplicative hashing + linear
  /// probing, gather-based on the wide ISAs.
  void (*hash_find_batch)(const std::uint64_t* slot_words, std::uint64_t mask,
                          const std::uint64_t* keys, std::size_t n,
                          std::uint64_t* values, std::uint8_t* found) noexcept;
};

/// The active kernel table. First call resolves it: RB_SIMD override if
/// set, else best_supported(). Hot paths should cache the reference per
/// operator open()/call, not per row.
const Kernels& kernels() noexcept;

/// The scalar table, always available — the differential oracle.
const Kernels& scalar_kernels() noexcept;

/// Active ISA (== kernels().isa).
Isa active_isa() noexcept;

/// Test hook: force the active table. Returns false (no change) when the
/// requested level is unsupported on this CPU/build.
bool set_isa(Isa isa) noexcept;

namespace detail {
// Per-ISA table getters; an ISA not compiled into this binary returns
// nullptr and is reported unsupported.
const Kernels* scalar_table() noexcept;
const Kernels* avx2_table() noexcept;
const Kernels* avx512_table() noexcept;
const Kernels* neon_table() noexcept;
}  // namespace detail

}  // namespace rb::accel::simd
