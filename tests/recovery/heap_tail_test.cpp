// Persisted heap chain tail (docs/ARCHITECTURE.md, "Instant restart"): the
// heap's first page names its chain tail in a field that every chain
// extension updates with a logged heap::kOpSetTail record inside the
// extension's nested top action.
//  - after a reopen, a table's first insert fetches only that table's own
//    pages, however many other tables the database holds (classic restart:
//    pages_read; instant restart: also pages_recovered_lazily, and every
//    other table's page is still pending afterwards);
//  - a crash in the middle of an extension (NTA not yet ended: the log is
//    cut after its kOpSetTail record) rolls the tail back with the link,
//    and a crash after a completed extension keeps it; either way the chain
//    validates and the next insert lands on the real tail, under both
//    restart modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "record/heap_page.h"
#include "test_util.h"

namespace ariesim {
namespace {

using testing::TempDir;

Options TailOptions(bool instant) {
  Options o;
  o.page_size = 512;
  o.buffer_pool_frames = 512;
  o.fsync_log = false;
  o.instant_restart = instant;
  o.instant_restart_sweep = false;  // pages recover only when fetched
  return o;
}

std::string Payload(const std::string& tag, int i) {
  return tag + "-" + std::to_string(i) + std::string(40, 'x');
}

/// Walk `t`'s chain from its first page, checking every page is an
/// allocated heap page of `t` and that the first page names the last page
/// as its tail (or names nothing, for a chain never extended). Returns the
/// page ids in chain order.
std::vector<PageId> ValidateChain(Database* db, Table* t) {
  std::vector<PageId> chain;
  PageId named_tail = kInvalidPageId;
  for (PageId pid = t->heap()->first_page(); pid != kInvalidPageId;) {
    EXPECT_LT(chain.size(), 10000u) << "chain does not terminate";
    if (chain.size() >= 10000u) break;
    auto alloc = db->space()->IsAllocated(pid);
    EXPECT_TRUE(alloc.ok() && alloc.value()) << "chain page " << pid;
    auto g = db->pool()->FetchPage(pid, LatchMode::kShared);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    if (!g.ok()) break;
    PageView v = g.value().view();
    EXPECT_EQ(v.type(), PageType::kHeap) << "chain page " << pid;
    EXPECT_EQ(v.owner_id(), t->meta().id) << "chain page " << pid;
    if (chain.empty()) named_tail = heap::ChainTail(v);
    chain.push_back(pid);
    pid = v.next_page();
  }
  if (chain.size() == 1) {
    EXPECT_EQ(named_tail, kInvalidPageId) << "unextended chain names a tail";
  } else if (!chain.empty()) {
    EXPECT_EQ(named_tail, chain.back()) << "first page names a stale tail";
  }
  return chain;
}

/// Commit rows into `t` until its chain spans `pages` pages.
void FillToPages(Database* db, Table* t, size_t pages) {
  Transaction* txn = db->Begin();
  for (int i = 0; ValidateChain(db, t).size() < pages; ++i) {
    ASSERT_OK(t->Insert(txn, {Payload(t->meta().name, i)}));
  }
  ASSERT_OK(db->Commit(txn));
}

struct FirstInsertCost {
  uint64_t pages_read = 0;
  uint64_t pages_recovered_lazily = 0;
};

class HeapTailReopenTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Table "a" (3 pages), then `others` tables of 4 pages each above it;
  /// restart and measure the first insert into "a". Classic: every page is
  /// flushed and checkpointed clean first, so the redo pass fetches none of
  /// them. Instant: crash with the pages unflushed, so every page written
  /// since the last DDL checkpoint is pending.
  FirstInsertCost Measure(int others) {
    const bool instant = GetParam();
    TempDir dir("heaptail_reopen");
    std::vector<PageId> other_pages;
    {
      auto db = std::move(Database::Open(dir.path(), TailOptions(false))).value();
      FillToPages(db.get(), db->CreateTable("a", 1).value(), 3);
      for (int i = 0; i < others; ++i) {
        Table* o = db->CreateTable("o" + std::to_string(i), 1).value();
        FillToPages(db.get(), o, 4);
        for (PageId p : ValidateChain(db.get(), o)) other_pages.push_back(p);
      }
      if (instant) {
        EXPECT_OK(db->wal()->FlushAll());
        db->SimulateCrash();
      } else {
        EXPECT_OK(db->FlushAllPages());
        EXPECT_OK(db->Checkpoint());
      }
    }
    auto db = std::move(Database::Open(dir.path(), TailOptions(instant))).value();
    EXPECT_EQ(db->restart_stats().instant, instant);
    if (instant) {
      EXPECT_GT(db->PendingRecoveryPages(), other_pages.size());
    }
    Table* a = db->GetTable("a");
    EXPECT_NE(a, nullptr);
    if (a == nullptr) return {};
    Metrics& m = db->metrics();
    const uint64_t reads = m.pages_read.load();
    const uint64_t lazy = m.pages_recovered_lazily.load();
    Transaction* txn = db->Begin();
    Rid rid;
    EXPECT_OK(a->Insert(txn, {"first-after-reopen"}, &rid));
    EXPECT_OK(db->Commit(txn));
    FirstInsertCost cost{m.pages_read.load() - reads,
                         m.pages_recovered_lazily.load() - lazy};
    EXPECT_EQ(rid.page_id, ValidateChain(db.get(), a).back());
    if (instant) {
      // Every other table's page is still pending: its first fetch now is
      // the one that replays it.
      for (PageId p : other_pages) {
        const uint64_t before = m.pages_recovered_lazily.load();
        EXPECT_TRUE(db->pool()->FetchPage(p, LatchMode::kShared).ok());
        EXPECT_EQ(m.pages_recovered_lazily.load(), before + 1)
            << "page " << p << " of another table was replayed by the insert";
      }
    }
    return cost;
  }
};

TEST_P(HeapTailReopenTest, FirstInsertFetchesOnlyItsOwnPages) {
  FirstInsertCost one = Measure(1);
  FirstInsertCost eight = Measure(8);
  EXPECT_GT(one.pages_read, 0u);
  EXPECT_EQ(one.pages_read, eight.pages_read)
      << "the first insert fetched pages of other tables";
  EXPECT_EQ(one.pages_recovered_lazily, eight.pages_recovered_lazily);
  if (GetParam()) {
    EXPECT_GT(one.pages_recovered_lazily, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Restart, HeapTailReopenTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Instant" : "Classic";
                         });

class HeapTailCrashTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Fresh database whose table "t" spans `pages` committed pages.
  void Seed(size_t pages) {
    db_.reset();
    dir_ = std::make_unique<TempDir>("heaptail_crash");
    Open(false);
    FillToPages(db_.get(), t_, pages);
    std::vector<std::pair<Rid, std::string>> rows;
    ASSERT_OK(t_->heap()->ScanAll(&rows));
    committed_ = rows.size();
  }

  void Open(bool instant) {
    db_ = std::move(Database::Open(dir_->path(), TailOptions(instant))).value();
    t_ = db_->GetTable("t");
    if (t_ == nullptr) t_ = db_->CreateTable("t", 1).value();
  }

  /// Reopen in the mode under test; the chain must validate, the committed
  /// rows must be intact, and the next insert must land on the real tail.
  void ReopenAndCheck(size_t expect_pages) {
    Open(GetParam());
    std::vector<PageId> chain = ValidateChain(db_.get(), t_);
    EXPECT_EQ(chain.size(), expect_pages);
    std::vector<std::pair<Rid, std::string>> rows;
    ASSERT_OK(t_->heap()->ScanAll(&rows));
    EXPECT_EQ(rows.size(), committed_);
    Transaction* txn = db_->Begin();
    Rid rid;
    ASSERT_OK(t_->Insert(txn, {"after-restart"}, &rid));
    ASSERT_OK(db_->Commit(txn));
    chain = ValidateChain(db_.get(), t_);
    EXPECT_EQ(rid.page_id, chain.back()) << "insert missed the real tail";
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  Table* t_ = nullptr;
  size_t committed_ = 0;
};

// The crash comes in the middle of an extension: its link and tail records
// are durable, but the dummy CLR that ends its NTA is not — the log is cut
// right after the kOpSetTail record, and no page written since is flushed,
// so the disk image is exactly one a crash at that instant leaves. Restart
// undo must unlink the page and restore the old tail. Covers both latch
// paths: the first extension (link and tail on the same page) and a later
// one.
TEST_P(HeapTailCrashTest, CrashInsideExtensionRestoresOldTail) {
  for (size_t pages : {1u, 3u}) {
    SCOPED_TRACE("chain of " + std::to_string(pages) + " pages");
    Seed(pages);
    ASSERT_OK(db_->wal()->FlushAll());
    ASSERT_OK(db_->FlushAllPages());
    const Lsn from = db_->wal()->next_lsn();
    Transaction* loser = db_->Begin();
    for (int i = 0; ValidateChain(db_.get(), t_).size() == pages; ++i) {
      ASSERT_OK(t_->Insert(loser, {Payload("loser", i)}));
    }
    ASSERT_OK(db_->wal()->FlushAll());
    TornCrashSpec spec;
    spec.target = TornCrashSpec::Target::kLogTail;
    LogManager::Reader reader(db_->wal(), from);
    LogRecord rec;
    while (reader.Next(&rec).ok()) {
      if (rec.txn_id == loser->id() && rec.rm == RmId::kHeap &&
          rec.op == heap::kOpSetTail) {
        spec.truncate_to = reader.position();
        break;
      }
    }
    ASSERT_NE(spec.truncate_to, 0u) << "no set_tail record after " << from;
    ASSERT_OK(db_->SimulateTornCrash(spec));
    ReopenAndCheck(pages);
  }
}

// A loser's insert extends the chain and the NTA ends; the crash comes
// before any page is flushed. Restart must redo the extension, tail field
// included, and its undo of the loser must leave the extension in place.
TEST_P(HeapTailCrashTest, CompletedExtensionSurvivesLoserCrash) {
  for (size_t pages : {1u, 3u}) {
    SCOPED_TRACE("chain of " + std::to_string(pages) + " pages");
    Seed(pages);
    Transaction* loser = db_->Begin();
    for (int i = 0; ValidateChain(db_.get(), t_).size() == pages; ++i) {
      ASSERT_OK(t_->Insert(loser, {Payload("loser", i)}));
    }
    ASSERT_OK(db_->wal()->FlushAll());
    db_->SimulateCrash();
    ReopenAndCheck(pages + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Restart, HeapTailCrashTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Instant" : "Classic";
                         });

}  // namespace
}  // namespace ariesim
