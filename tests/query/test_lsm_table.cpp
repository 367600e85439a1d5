// Decoder checks for the LSM-backed table encoding: a damaged schema or row
// record must raise an error, never decode into a wrong table.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "query/exec/lsm_table.hpp"
#include "query/table.hpp"
#include "storage/lsm.hpp"
#include "storage/wal.hpp"

namespace rb::query::exec {
namespace {

/// Schema record for one column named "a" with type tag `tag`.
std::string schema_record(char tag) {
  std::string record;
  storage::append_u32(record, 1);
  record.push_back(tag);
  storage::append_u32(record, 1);
  record += "a";
  return record;
}

std::string int_row(std::int64_t v) {
  std::string record;
  storage::append_u64(record, static_cast<std::uint64_t>(v));
  return record;
}

/// Stores {a: [7]} under "t"; the tests then overwrite one record.
void store_seven(storage::LsmStore& store) {
  Table t;
  t.add_int_column("a", {7});
  store_table(store, "t", t);
}

constexpr const char* kSchemaKey = "t!t!s";
constexpr const char* kRowKey = "t!t!r!0000000000";

TEST(LsmTableDecode, HandWrittenRecordsMatchTheEncoding) {
  storage::LsmStore store;
  store_seven(store);
  store.put(kSchemaKey, schema_record('i'));
  store.put(kRowKey, int_row(-42));
  const Table t = load_table(store, "t");
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.ints("a")[0], -42);
}

TEST(LsmTableDecode, UnknownColumnTagThrows) {
  storage::LsmStore store;
  store_seven(store);
  store.put(kSchemaKey, schema_record('x'));
  EXPECT_THROW(load_table(store, "t"), std::runtime_error);
}

TEST(LsmTableDecode, TruncatedRowThrows) {
  storage::LsmStore store;
  store_seven(store);
  store.put(kRowKey, int_row(7).substr(0, 7));
  EXPECT_THROW(load_table(store, "t"), std::runtime_error);
}

TEST(LsmTableDecode, TrailingBytesThrow) {
  {
    storage::LsmStore store;
  store_seven(store);
    store.put(kRowKey, int_row(7) + "x");
    EXPECT_THROW(load_table(store, "t"), std::runtime_error);
  }
  {
    storage::LsmStore store;
  store_seven(store);
    store.put(kSchemaKey, schema_record('i') + "x");
    EXPECT_THROW(load_table(store, "t"), std::runtime_error);
  }
}

}  // namespace
}  // namespace rb::query::exec
