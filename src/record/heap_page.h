// Heap (data) page log-record payloads and the page-oriented apply
// functions shared by forward processing and restart redo. All heap redo
// and undo is page-oriented: RIDs are stable, and deleted records are
// tombstoned (bytes retained) until the delete is known committed, so an
// undo of a delete always fits.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace ariesim {
namespace heap {

// Log opcodes (RmId::kHeap).
inline constexpr uint8_t kOpInsert = 1;    ///< [u16 slot][record bytes]
inline constexpr uint8_t kOpDelete = 2;    ///< [u16 slot][old record bytes]
inline constexpr uint8_t kOpUpdate = 3;    ///< [u16 slot][lp old][lp new]
inline constexpr uint8_t kOpFormat = 4;    ///< [u32 owner]
inline constexpr uint8_t kOpSetNext = 5;   ///< [u32 old][u32 new]
inline constexpr uint8_t kOpUnformat = 6;  ///< CLR-only: page back to free
inline constexpr uint8_t kOpRevive = 7;    ///< CLR-only: [u16 slot] undo delete
inline constexpr uint8_t kOpPurge = 8;     ///< CLR-only: [u16 slot] undo insert
inline constexpr uint8_t kOpSetTail = 9;   ///< [u32 old][u32 new], first page

std::string EncodeInsert(uint16_t slot, std::string_view record);
std::string EncodeDelete(uint16_t slot, std::string_view old_record);
std::string EncodeUpdate(uint16_t slot, std::string_view old_record,
                         std::string_view new_record);
std::string EncodeSlot(uint16_t slot);
std::string EncodeFormat(ObjectId owner);
/// Payload of kOpSetNext and kOpSetTail: the link's old and new target.
std::string EncodeLink(PageId old_target, PageId new_target);

/// Heap chains have no back links, so a heap's first page uses the page
/// header's prev slot to name the chain tail: kInvalidPageId until the
/// first extension, then maintained by logged kOpSetTail records.
inline PageId ChainTail(PageView first) { return first.prev_page(); }
inline void SetChainTail(PageView first, PageId tail) {
  first.set_prev_page(tail);
}

/// Page-oriented application of a heap op to a latched page.
Status Apply(uint8_t op, std::string_view payload, PageView v);

}  // namespace heap
}  // namespace ariesim
