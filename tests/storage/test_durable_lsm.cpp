#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "faults/storage.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"
#include "storage/manifest.hpp"
#include "storage/recovery.hpp"

namespace rb::storage {
namespace {

LsmOptions tiny() {
  LsmOptions options;
  options.memtable_bytes = 256;
  options.runs_per_level = 2;
  options.max_levels = 4;
  return options;
}

TEST(DurableLsm, FreshDeviceInitializesManifestAndWal) {
  MemDevice device;
  LsmStore store{tiny(), device};
  EXPECT_TRUE(store.durable());
  EXPECT_FALSE(store.recovery_info().recovered_existing);
  EXPECT_TRUE(device.exists(kManifestFile));
  const auto manifest = read_manifest(device);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->wal_file, wal_file_name(1));
}

TEST(DurableLsm, SyncedWritesSurviveReopen) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    store.put("alpha", "1");
    store.put("beta", "2");
    store.erase("alpha");
    EXPECT_EQ(store.sync(), 3u);
  }
  device.reopen();
  LsmStore recovered{tiny(), device};
  EXPECT_TRUE(recovered.recovery_info().recovered_existing);
  EXPECT_EQ(recovered.recovery_info().wal_records_replayed, 3u);
  EXPECT_FALSE(recovered.get("alpha").has_value());
  ASSERT_TRUE(recovered.get("beta").has_value());
  EXPECT_EQ(*recovered.get("beta"), "2");
}

TEST(DurableLsm, UnsyncedSuffixIsLostButAckedPrefixSurvives) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    store.put("acked", "yes");
    store.sync();
    store.put("unacked", "maybe");  // never synced
  }
  device.reopen();  // lost page cache: the unsynced tail is gone
  LsmStore recovered{tiny(), device};
  EXPECT_EQ(*recovered.get("acked"), "yes");
  EXPECT_FALSE(recovered.get("unacked").has_value());
  EXPECT_EQ(recovered.recovery_info().wal_records_replayed, 1u);
}

TEST(DurableLsm, FlushPersistsRunsAndRotatesWal) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    for (int i = 0; i < 40; ++i)
      store.put("key" + std::to_string(i), std::string(16, 'v'));
    store.sync();
    EXPECT_GT(store.stats().flushes, 0u);
  }
  const auto manifest = read_manifest(device);
  ASSERT_TRUE(manifest.has_value());
  // Flush rotated the WAL past the initial wal-0000000001.log.
  EXPECT_NE(manifest->wal_file, wal_file_name(1));
  std::size_t runs = 0;
  for (const auto& level : manifest->levels) runs += level.size();
  EXPECT_GT(runs, 0u);

  device.reopen();
  LsmStore recovered{tiny(), device};
  EXPECT_GT(recovered.recovery_info().runs_loaded, 0u);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(recovered.get("key" + std::to_string(i)).has_value()) << i;
  }
}

TEST(DurableLsm, RecoveredStateIsByteIdenticalToSurvivor) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    for (int i = 0; i < 60; ++i) {
      store.put("k" + std::to_string(i % 17), "v" + std::to_string(i));
      if (i % 3 == 0) store.erase("k" + std::to_string((i + 5) % 17));
      if (i % 7 == 0) store.sync();
    }
    store.sync();
  }
  device.reopen();
  std::vector<std::pair<std::string, std::string>> first, second;
  {
    LsmStore recovered{tiny(), device};
    first = recovered.scan("", "");
  }
  {
    LsmStore again{tiny(), device};
    second = again.scan("", "");
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(DurableLsm, TornWalTailIsTruncatedAndReported) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    store.put("good", "1");
    store.sync();
  }
  const auto wal = read_manifest(device)->wal_file;
  // Half a frame lands after the last sync — a torn write.
  device.append(wal, "\x01\x02\x03\x04\x05");
  device.sync(wal);
  device.reopen();
  LsmStore recovered{tiny(), device};
  EXPECT_TRUE(recovered.recovery_info().wal_tail_torn);
  EXPECT_EQ(recovered.recovery_info().wal_bytes_dropped, 5u);
  EXPECT_EQ(*recovered.get("good"), "1");
  // The torn bytes were truncated: a second recovery sees a clean log.
  LsmStore again{tiny(), device};
  EXPECT_FALSE(again.recovery_info().wal_tail_torn);
}

TEST(DurableLsm, CorruptWalRecordRefusesToOpen) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    store.put("key", "value");
    store.put("key2", "value2");
    store.sync();
  }
  const auto wal = read_manifest(device)->wal_file;
  device.corrupt_byte(wal, 9, 2);  // payload byte of the first frame
  device.reopen();
  EXPECT_THROW((LsmStore{tiny(), device}), CorruptionError);
}

TEST(DurableLsm, CorruptRunRefusesToOpenAndScrubNamesIt) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    for (int i = 0; i < 40; ++i)
      store.put("key" + std::to_string(i), std::string(16, 'v'));
    store.sync();
  }
  const auto manifest = read_manifest(device);
  ASSERT_TRUE(manifest.has_value());
  std::string run;
  for (const auto& level : manifest->levels)
    if (!level.empty()) run = level.front();
  ASSERT_FALSE(run.empty());
  device.corrupt_byte(run, device.size(run) / 2, 4);

  // Scrub (read-only) names the damaged run instead of dropping it.
  const ScrubReport report = scrub_device(device);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.corrupt_files.size(), 1u);
  EXPECT_EQ(report.corrupt_files[0], run);
  EXPECT_TRUE(report.manifest_ok);

  // And recovery refuses to serve from it.
  device.reopen();
  EXPECT_THROW((LsmStore{tiny(), device}), CorruptionError);
}

TEST(DurableLsm, ScrubOnLiveStoreCountsCorruptions) {
  MemDevice device;
  LsmStore store{tiny(), device};
  for (int i = 0; i < 40; ++i)
    store.put("key" + std::to_string(i), std::string(16, 'v'));
  store.sync();
  EXPECT_TRUE(store.scrub().clean());
  EXPECT_EQ(store.stats().scrubs, 1u);
  EXPECT_EQ(store.stats().scrub_corruptions, 0u);

  const auto manifest = read_manifest(device);
  std::string run;
  for (const auto& level : manifest->levels)
    if (!level.empty()) run = level.front();
  ASSERT_FALSE(run.empty());
  device.corrupt_byte(run, 10, 1);

  const ScrubReport report = store.scrub();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(store.stats().scrub_corruptions, report.corruptions());
}

TEST(DurableLsm, OrphanFilesAreSweptAtRecovery) {
  MemDevice device;
  {
    LsmStore store{tiny(), device};
    store.put("k", "v");
    store.sync();
  }
  device.append("sst-9999999999.run", "leftover from a crashed flush");
  device.sync("sst-9999999999.run");
  device.append(kManifestTmpFile, "half-written manifest");
  device.sync(kManifestTmpFile);
  device.reopen();
  LsmStore recovered{tiny(), device};
  EXPECT_EQ(recovered.recovery_info().orphan_files_removed, 2u);
  EXPECT_FALSE(device.exists("sst-9999999999.run"));
  EXPECT_FALSE(device.exists(kManifestTmpFile));
  EXPECT_EQ(*recovered.get("k"), "v");
}

TEST(DurableLsm, WalCountersAndWriteAmplificationIncludeTheLog) {
  MemDevice device;
  LsmStore store{tiny(), device};
  for (int i = 0; i < 30; ++i)
    store.put("key" + std::to_string(i), std::string(16, 'v'));
  store.erase("key0");
  store.sync();
  EXPECT_EQ(store.stats().wal_appends, 31u);
  EXPECT_GT(store.stats().wal_syncs, 0u);
  EXPECT_GT(store.stats().bytes_written_wal,
            store.stats().bytes_written_user);
  EXPECT_GT(store.stats().write_amplification(), 1.0);

  // Recovery replays only the log records no flushed run covers: the last
  // memtable's five, ending with the erase.
  device.reopen();
  LsmStore recovered{tiny(), device};
  EXPECT_TRUE(recovered.recovery_info().recovered_existing);
  EXPECT_EQ(recovered.recovery_info().wal_records_replayed, 5u);
  EXPECT_FALSE(recovered.get("key0").has_value());
  EXPECT_EQ(*recovered.get("key29"), std::string(16, 'v'));
}

TEST(DurableLsm, InMemoryStoreScrubsCleanAndSyncIsNoop) {
  LsmStore store{tiny()};
  store.put("k", "v");
  EXPECT_FALSE(store.durable());
  EXPECT_EQ(store.sync(), 0u);
  EXPECT_TRUE(store.scrub().clean());
  EXPECT_EQ(store.stats().bytes_written_wal, 0u);
}

TEST(DurableLsm, FileDeviceEndToEndRoundTrip) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("rb_durable_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  {
    FileDevice device{root};
    LsmStore store{tiny(), device};
    for (int i = 0; i < 80; ++i)
      store.put("key" + std::to_string(i), "value" + std::to_string(i));
    store.erase("key7");
    store.sync();
    EXPECT_GT(store.stats().flushes, 0u);
  }
  {
    FileDevice device{root};
    LsmStore recovered{tiny(), device};
    EXPECT_TRUE(recovered.recovery_info().recovered_existing);
    EXPECT_FALSE(recovered.get("key7").has_value());
    for (int i = 0; i < 80; ++i) {
      if (i == 7) continue;
      ASSERT_TRUE(recovered.get("key" + std::to_string(i)).has_value()) << i;
      EXPECT_EQ(*recovered.get("key" + std::to_string(i)),
                "value" + std::to_string(i));
    }
    EXPECT_TRUE(recovered.scrub().clean());
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace rb::storage
