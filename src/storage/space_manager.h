// Bitmap space map over the tablespace. The first `space_map_pages` pages
// of the file are reserved as the allocation bitmap (bit set = page in
// use). Bit operations are logged as undo-redo records against the map
// page, so allocation and free are transactional *and* order-independent
// under undo (undo of alloc = clear bit; undo of free = set bit) — unlike a
// free list, which cannot be physically undone once another transaction
// has popped from it.
//
// Pages freed by a page-delete SMO are freed inside the SMO's nested top
// action, so a completed SMO's free survives the transaction's rollback
// (paper §3).
#pragma once

#include <mutex>

#include "buffer/buffer_pool.h"
#include "common/context.h"
#include "common/status.h"
#include "recovery/resource_manager.h"
#include "txn/transaction_manager.h"

namespace ariesim {

inline constexpr uint32_t kSpaceMapPages = 4;

class SpaceManager final : public ResourceManager {
 public:
  explicit SpaceManager(EngineContext* ctx) : ctx_(ctx) {}

  /// Format the space-map pages of a fresh database (direct, pre-logging).
  Status Bootstrap();

  /// Rebuild the unlogged base image of map page `map_page` into `v` (an
  /// X-latched or private buffer). Torn-page repair replays the logged bit
  /// flips on top of this, since Bootstrap itself predates the log.
  static void FormatMapPage(PageView v, PageId map_page);

  /// Allocate a page on behalf of `txn` (logged, undoable).
  Result<PageId> AllocatePage(Transaction* txn);
  /// Return a page to the map (logged, undoable).
  Status FreePage(Transaction* txn, PageId id);

  /// True if `id` is currently allocated (test/validation helper).
  Result<bool> IsAllocated(PageId id);
  /// Number of allocated pages, excluding the map pages (test helper).
  Result<uint64_t> AllocatedCount();

  /// Total pages addressable by the map.
  uint64_t Capacity() const;

  // ResourceManager:
  Status Redo(const LogRecord& rec, PageView page) override;
  Status Undo(Transaction* txn, const LogRecord& rec) override;

  // Log opcodes.
  static constexpr uint8_t kOpBitSet = 1;    ///< payload: u32 page id
  static constexpr uint8_t kOpBitClear = 2;  ///< payload: u32 page id

 private:
  size_t BitsPerMapPage() const;
  PageId MapPageFor(PageId id) const;
  static void ApplyBit(PageView v, uint32_t bit_in_page, bool set);
  static bool TestBit(PageView v, uint32_t bit_in_page);

  EngineContext* ctx_;
  std::mutex hint_mu_;
  PageId alloc_hint_ = kSpaceMapPages;  // next page id to try
};

}  // namespace ariesim
