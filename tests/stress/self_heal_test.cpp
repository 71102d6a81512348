// Self-healing storage stress suite (docs/ARCHITECTURE.md "Engine health"):
//  - bit-rot on cold pages under a live multi-threaded workload is detected
//    at fetch time and repaired online from the log, with no restart;
//  - two rotten pages faulted in concurrently exercise the thread-safety of
//    RecoveryManager::RebuildPageImage (run under TSan);
//  - a persistent (media) read error is healed by rebuilding the page from
//    the log even though the device never serves that page again;
//  - a stuck-then-recovering device is ridden out by I/O retry alone, with
//    no repair at all;
//  - when the log history is lost, an unrepairable page degrades the engine
//    to read-only instead of crashing or serving corrupt bytes.
//
// Seeds come from StressSeeds(16); replay one in isolation with
// ARIESIM_STRESS_SEEDS (see docs/FAULT_INJECTION.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "fault_util.h"

namespace ariesim {
namespace {

using testing::FaultTestOptions;
using testing::RunFaultWorkload;
using testing::StressSeeds;
using testing::TempDir;
using testing::VerifyDatabaseState;
using testing::WorkloadParams;
using testing::WorkloadTrace;

/// Overwrite one page of data.db with 0xAB junk — media decay while the
/// engine is running. The buffer pool must never serve these bytes.
void CorruptPageOnDisk(const std::string& dir, PageId pid, size_t ps) {
  std::fstream f(dir + "/data.db",
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  std::string junk(ps, '\xAB');
  f.seekp(static_cast<std::streamoff>(pid) * static_cast<std::streamoff>(ps));
  f.write(junk.data(), static_cast<std::streamsize>(ps));
  f.flush();
}

class SelfHealBase : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("selfheal");
  }

  void OpenDb(const Options& o) {
    db_ = std::move(Database::Open(dir_->path(), o)).value();
    table_ = db_->CreateTable("t", 2).value();
    tree_ = db_->CreateIndex("t", "pk", 0, true).value();
    cold_ = db_->CreateTable("c", 2).value();
    cold_tree_ = db_->CreateIndex("c", "cpk", 0, true).value();
  }

  /// Commit `n` rows into the cold table and flush, so its pages sit clean
  /// on disk with their full history in the log. The workload only writes
  /// table "t", so these pages never see another log record — the shape
  /// online repair quarantines against.
  void SeedColdTable(int n) {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < n; ++i) {
      std::string key = "c" + std::to_string(1000 + i);
      std::string val = "cv" + std::to_string(i);
      ASSERT_OK(cold_->Insert(txn, {key, val}));
      cold_ref_[key] = val;
    }
    ASSERT_OK(db_->Commit(txn));
    ASSERT_OK(db_->FlushAllPages());
  }

  /// Pages owned by the cold table or its index (heap, leaves, internals).
  std::vector<PageId> ColdPages() {
    std::vector<PageId> out;
    size_t ps = db_->options().page_size;
    auto bytes = std::filesystem::file_size(dir_->path() + "/data.db");
    PageId npages = static_cast<PageId>((bytes + ps - 1) / ps);
    for (PageId pid = kSpaceMapPages; pid < npages; ++pid) {
      auto g = db_->pool()->FetchPage(pid, LatchMode::kShared);
      if (!g.ok()) continue;
      uint32_t owner = g.value().view().owner_id();
      if (owner == cold_->meta().id || owner == cold_tree_->index_id()) {
        out.push_back(pid);
      }
    }
    return out;
  }

  /// Evict `pid` so the next fetch must go to disk; spins past transient
  /// pins (the workload never pins cold pages, but the pool might be
  /// mid-eviction).
  void EvictPage(PageId pid) {
    Status s = db_->pool()->DiscardPage(pid);
    while (s.IsBusy()) {
      std::this_thread::yield();
      s = db_->pool()->DiscardPage(pid);
    }
    ASSERT_OK(s);
  }

  /// Every seeded cold row is readable with its committed value and the
  /// cold index is structurally valid — i.e. repair reproduced the exact
  /// committed state, not merely a well-formed page.
  void VerifyColdTable() {
    Transaction* check = db_->Begin();
    std::optional<Row> row;
    for (const auto& [k, v] : cold_ref_) {
      ASSERT_OK(cold_->FetchByKey(check, "cpk", k, &row));
      ASSERT_TRUE(row.has_value()) << "cold key " << k;
      EXPECT_EQ((*row)[1], v) << "cold key " << k;
    }
    ASSERT_OK(db_->Commit(check));
    size_t keys = 0;
    ASSERT_OK(cold_tree_->Validate(&keys));
    EXPECT_EQ(keys, cold_ref_.size());
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  BTree* tree_ = nullptr;
  Table* cold_ = nullptr;
  BTree* cold_tree_ = nullptr;
  std::map<std::string, std::string> cold_ref_;
};

class SelfHealTest : public SelfHealBase,
                     public ::testing::WithParamInterface<uint64_t> {
 protected:
  void SetUp() override {
    SelfHealBase::SetUp();
    OpenDb(FaultTestOptions());
  }
};

// Cold pages rot one at a time while four workload threads keep committing;
// every rot is detected on fetch and repaired online, and at the end both
// the workload's committed state and the cold table read back exactly —
// without a single restart.
TEST_P(SelfHealTest, BitRotOnColdPagesRepairedOnlineUnderLoad) {
  const uint64_t seed = GetParam();
  SeedColdTable(60);
  std::vector<PageId> cold_pages = ColdPages();
  ASSERT_GE(cold_pages.size(), 3u);

  WorkloadTrace trace;
  WorkloadParams p;
  p.threads = 4;
  p.txns_per_thread = 15;
  p.stop_on_trip = false;  // bit-rot trips the injector but nothing fails
  p.retry_errors = true;
  std::thread load(
      [&] { RunFaultWorkload(db_.get(), table_, seed, p, &trace); });

  Random rnd(seed ^ 0xc01dc01dull);
  Metrics& m = db_->metrics();

  // Rounds 1-3: armed bit-rot — the read itself delivers rotten bytes.
  for (int round = 0; round < 3; ++round) {
    PageId victim = cold_pages[rnd.Uniform(cold_pages.size())];
    EvictPage(victim);
    uint64_t before = m.pages_repaired_online.load();
    FaultSpec spec;
    spec.kind = FaultKind::kBitRot;
    spec.site = FaultSite::kDataRead;
    spec.page_id = victim;
    db_->fault_injector()->Arm(spec);
    {
      auto g = db_->pool()->FetchPage(victim, LatchMode::kShared);
      ASSERT_TRUE(g.ok()) << "round " << round << " page " << victim << ": "
                          << g.status().ToString();
      EXPECT_NE(g.value().view().type(), PageType::kInvalid);
    }
    db_->fault_injector()->Disarm();
    EXPECT_EQ(m.pages_repaired_online.load(), before + 1)
        << "round " << round << " page " << victim;
  }

  // Round 4: two pages rot at once (direct on-disk corruption, no injector)
  // and two threads fault them in concurrently — concurrent
  // RebuildPageImage, each quarantined behind its own in-progress slot.
  PageId v1 = cold_pages.front();
  PageId v2 = cold_pages.back();
  ASSERT_NE(v1, v2);
  EvictPage(v1);
  EvictPage(v2);
  uint64_t before = m.pages_repaired_online.load();
  size_t ps = db_->options().page_size;
  CorruptPageOnDisk(dir_->path(), v1, ps);
  CorruptPageOnDisk(dir_->path(), v2, ps);
  std::thread f1([&] {
    auto g = db_->pool()->FetchPage(v1, LatchMode::kShared);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
  });
  std::thread f2([&] {
    auto g = db_->pool()->FetchPage(v2, LatchMode::kShared);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
  });
  f1.join();
  f2.join();
  EXPECT_EQ(m.pages_repaired_online.load(), before + 2);

  load.join();

  EXPECT_EQ(db_->Health(), EngineHealth::kHealthy);
  EXPECT_EQ(m.health_trips.load(), 0u);
  EXPECT_EQ(m.torn_pages_repaired.load(), 0u);  // no restart ran
  EXPECT_GE(m.pages_repaired_online.load(), 5u);
  VerifyColdTable();
  VerifyDatabaseState(db_.get(), &trace, seed);
}

// The log's history is lost (truncated to its prologue) while the engine
// keeps running, then a cold page rots. The rebuild finds no history, so
// the engine must degrade to read-only: reads still served, writes
// rejected with the typed status, the corrupt page never served.
TEST_P(SelfHealTest, LostLogHistoryTripsReadOnly) {
  const uint64_t seed = GetParam();
  SeedColdTable(30);
  std::vector<PageId> cold_pages = ColdPages();
  ASSERT_GE(cold_pages.size(), 2u);

  WorkloadTrace trace;
  WorkloadParams p;
  p.threads = 4;
  p.txns_per_thread = 6;
  p.stop_on_trip = false;
  p.retry_errors = true;
  RunFaultWorkload(db_.get(), table_, seed, p, &trace);
  ASSERT_OK(db_->FlushAllPages());

  std::filesystem::resize_file(dir_->path() + "/wal.log", kLogFilePrologue);
  Random rnd(seed ^ 0xdeadull);
  PageId victim = cold_pages[rnd.Uniform(cold_pages.size())];
  EvictPage(victim);
  CorruptPageOnDisk(dir_->path(), victim, db_->options().page_size);

  auto g = db_->pool()->FetchPage(victim, LatchMode::kShared);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Code::kCorruption) << g.status().ToString();
  EXPECT_EQ(db_->Health(), EngineHealth::kReadOnly) << db_->HealthReason();
  EXPECT_FALSE(db_->HealthReason().empty());
  EXPECT_EQ(db_->metrics().health_trips.load(), 1u);
  EXPECT_EQ(db_->metrics().pages_repaired_online.load(), 0u);

  // Reads of healthy pages are still served...
  Transaction* txn = db_->Begin();
  std::optional<Row> row;
  int probed = 0;
  for (const auto& [k, v] : trace.committed) {
    if (++probed > 3) break;
    ASSERT_OK(table_->FetchByKey(txn, "pk", k, &row));
    ASSERT_TRUE(row.has_value()) << "committed key " << k;
    EXPECT_EQ((*row)[1], v);
  }
  // ...writes are rejected with the typed status...
  Status ins = table_->Insert(txn, {"zz-new", "v"});
  EXPECT_TRUE(ins.IsReadOnly()) << ins.ToString();
  EXPECT_EQ(db_->CreateTable("x", 1).status().code(), Code::kReadOnly);
  ASSERT_OK(db_->Rollback(txn));

  // ...and the corrupt page stays quarantined: the fetch keeps failing
  // rather than ever serving the rotten bytes, and the trip is one-way
  // and counted once.
  EXPECT_FALSE(db_->pool()->FetchPage(victim, LatchMode::kShared).ok());
  EXPECT_EQ(db_->Health(), EngineHealth::kReadOnly);
  EXPECT_EQ(db_->metrics().health_trips.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfHealTest,
                         ::testing::ValuesIn(StressSeeds(16)));

using SelfHealDeviceTest = SelfHealBase;

// A media failure that never heals: every read of the victim page returns
// IOError, forever. Retry exhausts, and online repair rebuilds the page
// from the log instead — the device's copy is dead but the data is not.
TEST_F(SelfHealDeviceTest, PersistentReadErrorRebuiltFromLog) {
  OpenDb(FaultTestOptions());  // Options default: 4 read attempts
  SeedColdTable(20);
  std::vector<PageId> cold_pages = ColdPages();
  ASSERT_FALSE(cold_pages.empty());
  PageId victim = cold_pages.front();
  EvictPage(victim);

  FaultSpec spec;
  spec.kind = FaultKind::kPersistentError;
  spec.site = FaultSite::kDataRead;
  spec.page_id = victim;
  db_->fault_injector()->Arm(spec);

  Metrics& m = db_->metrics();
  uint64_t retries_before = m.io_retries.load();
  {
    auto g = db_->pool()->FetchPage(victim, LatchMode::kShared);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_NE(g.value().view().type(), PageType::kInvalid);
  }
  db_->fault_injector()->Disarm();

  EXPECT_EQ(m.pages_repaired_online.load(), 1u);
  EXPECT_GE(m.io_retries.load(), retries_before + 3);  // 4 attempts, 3 retries
  EXPECT_EQ(db_->Health(), EngineHealth::kHealthy);
  VerifyColdTable();
}

// A device that hangs and then comes back: reads of the victim fail for a
// stall window, and exponential backoff alone rides it out — the fetch
// succeeds with no repair and no degradation.
TEST_F(SelfHealDeviceTest, StuckDeviceRiddenOutByRetryBackoff) {
  Options o = FaultTestOptions();
  o.io_retry_attempts = 8;
  o.io_retry_base_delay_us = 300;
  o.io_retry_max_delay_us = 5000;
  OpenDb(o);
  SeedColdTable(20);
  std::vector<PageId> cold_pages = ColdPages();
  ASSERT_FALSE(cold_pages.empty());
  PageId victim = cold_pages.front();
  EvictPage(victim);

  FaultSpec spec;
  spec.kind = FaultKind::kStuckDevice;
  spec.site = FaultSite::kDataRead;
  spec.page_id = victim;
  spec.stall_us = 1000;  // backoff sleeps 300+600+1200µs: past the stall
  db_->fault_injector()->Arm(spec);

  Metrics& m = db_->metrics();
  uint64_t repaired_before = m.pages_repaired_online.load();
  {
    auto g = db_->pool()->FetchPage(victim, LatchMode::kShared);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_NE(g.value().view().type(), PageType::kInvalid);
  }
  db_->fault_injector()->Disarm();

  EXPECT_EQ(m.pages_repaired_online.load(), repaired_before);  // retry only
  EXPECT_GE(m.io_retries.load(), 1u);
  EXPECT_EQ(db_->Health(), EngineHealth::kHealthy);
  VerifyColdTable();
}

using ColdPageIsolationTest = SelfHealBase;

// The interleaving behind BitRotOnColdPagesRepairedOnlineUnderLoad, pinned
// without threads: the *first* insert into the workload table lands between
// evicting a cold page and rotting it on disk. Finding that table's chain
// tail must not fetch the cold page back in, or the good image stays cached
// and the rot is never read — nor repaired.
TEST_F(ColdPageIsolationTest, FirstInsertElsewhereLeavesEvictedColdPageAlone) {
  OpenDb(FaultTestOptions());
  SeedColdTable(60);
  std::vector<PageId> cold_pages = ColdPages();
  ASSERT_GE(cold_pages.size(), 3u);
  PageId victim = cold_pages.front();
  EvictPage(victim);
  Transaction* txn = db_->Begin();
  ASSERT_OK(table_->Insert(txn, {"first", "v"}));
  ASSERT_OK(db_->Commit(txn));
  Metrics& m = db_->metrics();
  uint64_t before = m.pages_repaired_online.load();
  CorruptPageOnDisk(dir_->path(), victim, db_->options().page_size);
  {
    auto g = db_->pool()->FetchPage(victim, LatchMode::kShared);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
  }
  EXPECT_EQ(m.pages_repaired_online.load(), before + 1) << "page " << victim;
  EXPECT_EQ(db_->Health(), EngineHealth::kHealthy);
  VerifyColdTable();
}

}  // namespace
}  // namespace ariesim
