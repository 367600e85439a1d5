#include "accel/hash_table.hpp"

#include <bit>

namespace rb::accel {

HashTable64::HashTable64(std::size_t expected) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(16, expected * 2));
  slots_.assign(cap, Slot{kEmpty, 0});
  mask_ = cap - 1;
}

const std::uint64_t* HashTable64::find(std::uint64_t key) const noexcept {
  if (key == kZeroSentinel) return has_sentinel_ ? &sentinel_value_ : nullptr;
  const std::uint64_t k = encode(key);
  std::size_t i = probe_start(k);
  for (;;) {
    const auto& slot = slots_[i];
    if (slot.key == kEmpty) return nullptr;
    if (slot.key == k) return &slot.value;
    i = (i + 1) & mask_;
  }
}

void HashTable64::find_batch(const std::uint64_t* keys, std::size_t n,
                             std::uint64_t* values,
                             std::uint8_t* found) const noexcept {
  simd::kernels().hash_find_batch(
      reinterpret_cast<const std::uint64_t*>(slots_.data()), mask_, keys, n,
      values, found);
  // The kernel probes the sentinel key as remapped key 0; answer it from
  // the entry beside the slots instead.
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] != kZeroSentinel) continue;
    values[i] = has_sentinel_ ? sentinel_value_ : 0;
    found[i] = has_sentinel_ ? 1 : 0;
  }
}

void HashTable64::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = old.size() * 2;
  slots_.assign(cap, Slot{kEmpty, 0});
  mask_ = cap - 1;
  size_ = 0;
  for (const auto& slot : old) {
    if (slot.key == kEmpty) continue;
    // Re-insert raw (already encoded) keys.
    std::size_t i = probe_start(slot.key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
    ++size_;
  }
}

}  // namespace rb::accel
