#include "storage/space_manager.h"

#include "util/coding.h"

namespace ariesim {

size_t SpaceManager::BitsPerMapPage() const {
  return (ctx_->options.page_size - kPageHeaderSize) * 8;
}

PageId SpaceManager::MapPageFor(PageId id) const {
  return static_cast<PageId>(id / BitsPerMapPage());
}

uint64_t SpaceManager::Capacity() const {
  return static_cast<uint64_t>(kSpaceMapPages) * BitsPerMapPage();
}

void SpaceManager::ApplyBit(PageView v, uint32_t bit, bool set) {
  char* base = v.data() + kPageHeaderSize;
  if (set) {
    base[bit / 8] |= static_cast<char>(1u << (bit % 8));
  } else {
    base[bit / 8] &= static_cast<char>(~(1u << (bit % 8)));
  }
}

bool SpaceManager::TestBit(PageView v, uint32_t bit) {
  const char* base = v.data() + kPageHeaderSize;
  return (base[bit / 8] >> (bit % 8)) & 1;
}

void SpaceManager::FormatMapPage(PageView v, PageId map_page) {
  v.Init(map_page, PageType::kMeta, kInvalidObjectId, 0);
  // The map pages themselves are marked allocated in map page 0 — a fact
  // established before logging exists, hence part of the base image.
  if (map_page == 0) {
    for (PageId m = 0; m < kSpaceMapPages; ++m) ApplyBit(v, m, true);
  }
}

Status SpaceManager::Bootstrap() {
  for (PageId m = 0; m < kSpaceMapPages; ++m) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(m, LatchMode::kExclusive));
    FormatMapPage(page.view(), m);
    page.MarkDirty(kNullLsn);
  }
  return Status::OK();
}

Result<PageId> SpaceManager::AllocatePage(Transaction* txn) {
  PageId start;
  {
    std::lock_guard<std::mutex> lk(hint_mu_);
    start = alloc_hint_;
  }
  const uint64_t cap = Capacity();
  for (uint64_t attempt = 0; attempt < cap; /* advanced inside */) {
    PageId candidate = static_cast<PageId>((start + attempt) % cap);
    if (candidate < kSpaceMapPages) {
      attempt += kSpaceMapPages - candidate;
      continue;
    }
    PageId map_page = MapPageFor(candidate);
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(map_page, LatchMode::kExclusive));
    PageView v = page.view();
    // Scan this map page from `candidate` forward.
    uint64_t base_bit = static_cast<uint64_t>(map_page) * BitsPerMapPage();
    uint64_t end_bit = base_bit + BitsPerMapPage();
    for (uint64_t id = candidate; id < end_bit && id < cap; ++id, ++attempt) {
      uint32_t bit = static_cast<uint32_t>(id - base_bit);
      if (TestBit(v, bit)) continue;
      LogRecord rec;
      rec.type = LogType::kUpdate;
      rec.rm = RmId::kMeta;
      rec.op = kOpBitSet;
      rec.page_id = map_page;
      PutFixed32(&rec.payload, static_cast<uint32_t>(id));
      ARIES_ASSIGN_OR_RETURN(Lsn lsn, ctx_->txns->AppendTxnLog(txn, &rec));
      ApplyBit(v, bit, true);
      page.MarkDirty(lsn);
      {
        std::lock_guard<std::mutex> lk(hint_mu_);
        alloc_hint_ = static_cast<PageId>(id + 1 < cap ? id + 1 : kSpaceMapPages);
      }
      return static_cast<PageId>(id);
    }
  }
  return Status::NoSpace("space map exhausted (capacity " +
                         std::to_string(cap) + " pages)");
}

Status SpaceManager::FreePage(Transaction* txn, PageId id) {
  if (id < kSpaceMapPages || id >= Capacity()) {
    return Status::InvalidArgument("cannot free page " + std::to_string(id));
  }
  PageId map_page = MapPageFor(id);
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(map_page, LatchMode::kExclusive));
  uint32_t bit =
      static_cast<uint32_t>(id - static_cast<uint64_t>(map_page) * BitsPerMapPage());
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.rm = RmId::kMeta;
  rec.op = kOpBitClear;
  rec.page_id = map_page;
  PutFixed32(&rec.payload, id);
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, ctx_->txns->AppendTxnLog(txn, &rec));
  ApplyBit(page.view(), bit, false);
  page.MarkDirty(lsn);
  {
    std::lock_guard<std::mutex> lk(hint_mu_);
    if (id < alloc_hint_) alloc_hint_ = id;
  }
  return Status::OK();
}

Result<bool> SpaceManager::IsAllocated(PageId id) {
  PageId map_page = MapPageFor(id);
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(map_page, LatchMode::kShared));
  uint32_t bit =
      static_cast<uint32_t>(id - static_cast<uint64_t>(map_page) * BitsPerMapPage());
  return TestBit(page.view(), bit);
}

Result<uint64_t> SpaceManager::AllocatedCount() {
  uint64_t count = 0;
  for (PageId m = 0; m < kSpaceMapPages; ++m) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(m, LatchMode::kShared));
    PageView v = page.view();
    for (uint32_t bit = 0; bit < BitsPerMapPage(); ++bit) {
      if (TestBit(v, bit)) ++count;
    }
  }
  return count - kSpaceMapPages;
}

Status SpaceManager::Redo(const LogRecord& rec, PageView page) {
  BufferReader r(rec.payload);
  uint32_t id = r.GetFixed32();
  uint32_t bit = static_cast<uint32_t>(
      id - static_cast<uint64_t>(rec.page_id) * BitsPerMapPage());
  ApplyBit(page, bit, rec.op == kOpBitSet);
  return Status::OK();
}

Status SpaceManager::Undo(Transaction* txn, const LogRecord& rec) {
  BufferReader r(rec.payload);
  uint32_t id = r.GetFixed32();
  PageId map_page = rec.page_id;
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(map_page, LatchMode::kExclusive));
  LogRecord clr;
  clr.type = LogType::kCompensation;
  clr.rm = RmId::kMeta;
  clr.op = rec.op == kOpBitSet ? kOpBitClear : kOpBitSet;
  clr.page_id = map_page;
  clr.undo_next_lsn = rec.prev_lsn;
  PutFixed32(&clr.payload, id);
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, ctx_->txns->AppendTxnLog(txn, &clr));
  uint32_t bit = static_cast<uint32_t>(
      id - static_cast<uint64_t>(map_page) * BitsPerMapPage());
  ApplyBit(page.view(), bit, clr.op == kOpBitSet);
  page.MarkDirty(lsn);
  return Status::OK();
}

}  // namespace ariesim
