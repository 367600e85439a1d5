#include "accel/aggregate.hpp"

#include <algorithm>

namespace rb::accel {

std::vector<GroupResult> group_aggregate(std::span<const Row> rows, AggOp op) {
  HashTable64 table{rows.size() / 4 + 16};
  const auto combine = [op](std::uint64_t acc, std::uint64_t v) {
    switch (op) {
      case AggOp::kSum: return acc + v;
      case AggOp::kCount: return acc + v;  // values pre-mapped to 1
      case AggOp::kMin: return std::min(acc, v);
      case AggOp::kMax: return std::max(acc, v);
    }
    return acc;
  };
  for (const auto& row : rows) {
    const std::uint64_t v = op == AggOp::kCount ? 1 : row.payload;
    table.upsert(row.key, v, combine);
  }
  std::vector<GroupResult> out;
  out.reserve(table.size());
  table.for_each([&out](std::uint64_t k, std::uint64_t v) {
    out.push_back(GroupResult{k, v});
  });
  std::sort(out.begin(), out.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace rb::accel
