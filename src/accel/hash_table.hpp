#pragma once
// Open-addressing hash table specialized for 64-bit keys — the engine under
// the query engine's hash join and group aggregate.
//
// Linear probing with a power-of-two capacity and multiplicative hashing;
// key 0 is reserved as the empty slot marker, so the table transparently
// remaps user key 0 to a sentinel. The user key equal to that sentinel
// (INT64_MIN's bit pattern) is kept beside the slot array, so every key has
// its own entry.

#include <cstdint>
#include <vector>

#include "accel/simd/simd.hpp"

namespace rb::accel {

/// Maps uint64 keys to uint64 values with upsert-by-combine semantics.
class HashTable64 {
 public:
  /// `expected` sizes the table at ~2x occupancy headroom.
  explicit HashTable64(std::size_t expected = 16);

  /// Insert key->value, or combine with the existing value via `op(old, v)`.
  template <typename Op>
  void upsert(std::uint64_t key, std::uint64_t value, Op op) {
    if (key == kZeroSentinel) {
      sentinel_value_ = has_sentinel_ ? op(sentinel_value_, value) : value;
      has_sentinel_ = true;
      return;
    }
    if (size_ * 2 >= slots_.size()) grow();
    const std::uint64_t k = encode(key);
    std::size_t i = probe_start(k);
    for (;;) {
      auto& slot = slots_[i];
      if (slot.key == kEmpty) {
        slot.key = k;
        slot.value = value;
        ++size_;
        return;
      }
      if (slot.key == k) {
        slot.value = op(slot.value, value);
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Returns pointer to the value for `key`, or nullptr when absent.
  const std::uint64_t* find(std::uint64_t key) const noexcept;

  /// Batched lookup through the dispatched SIMD probe kernel: for each of
  /// the n keys, values[i] = stored value and found[i] = 1 when present,
  /// else values[i] = 0 and found[i] = 0. Bit-identical to calling find()
  /// per key.
  void find_batch(const std::uint64_t* keys, std::size_t n,
                  std::uint64_t* values, std::uint8_t* found) const noexcept;

  std::size_t size() const noexcept { return size_ + (has_sentinel_ ? 1 : 0); }

  /// Visit every (key, value) pair.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const auto& slot : slots_) {
      if (slot.key != kEmpty) fn(decode(slot.key), slot.value);
    }
    if (has_sentinel_) fn(kZeroSentinel, sentinel_value_);
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
  };
  // The SIMD probe kernel (simd::hash_find_batch) reads slots_ as a raw
  // word array, so the layout and the hashing constants are shared with
  // accel/simd/simd.hpp — keep them in lockstep.
  static_assert(sizeof(Slot) == 2 * sizeof(std::uint64_t));
  static constexpr std::uint64_t kEmpty = simd::kHashEmpty;
  static constexpr std::uint64_t kZeroSentinel = simd::kHashZeroSentinel;

  static std::uint64_t encode(std::uint64_t key) noexcept {
    return key == 0 ? kZeroSentinel : key;
  }
  static std::uint64_t decode(std::uint64_t stored) noexcept {
    return stored == kZeroSentinel ? 0 : stored;
  }

  std::size_t probe_start(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>(k * simd::kHashMul) & mask_;
  }

  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // keys in slots_
  bool has_sentinel_ = false;
  std::uint64_t sentinel_value_ = 0;
};

}  // namespace rb::accel
