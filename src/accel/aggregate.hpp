#pragma once
// Grouped-aggregation building block (Rec 10): SUM / COUNT / MIN / MAX per
// 64-bit group key, over the open-addressing HashTable64.

#include <cstdint>
#include <span>
#include <vector>

#include "accel/hash_join.hpp"  // Row
#include "accel/hash_table.hpp"

namespace rb::accel {

enum class AggOp : std::uint8_t { kSum, kCount, kMin, kMax };

struct GroupResult {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Aggregate `rows.payload` per `rows.key` with `op`. Results are returned
/// sorted by key (deterministic output).
std::vector<GroupResult> group_aggregate(std::span<const Row> rows, AggOp op);

}  // namespace rb::accel
