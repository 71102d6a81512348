#include "record/heap_page.h"

#include "util/coding.h"

namespace ariesim {
namespace heap {

std::string EncodeInsert(uint16_t slot, std::string_view record) {
  std::string p;
  PutFixed16(&p, slot);
  p.append(record);
  return p;
}

std::string EncodeDelete(uint16_t slot, std::string_view old_record) {
  std::string p;
  PutFixed16(&p, slot);
  p.append(old_record);
  return p;
}

std::string EncodeUpdate(uint16_t slot, std::string_view old_record,
                         std::string_view new_record) {
  std::string p;
  PutFixed16(&p, slot);
  PutLengthPrefixed(&p, old_record);
  PutLengthPrefixed(&p, new_record);
  return p;
}

std::string EncodeSlot(uint16_t slot) {
  std::string p;
  PutFixed16(&p, slot);
  return p;
}

std::string EncodeFormat(ObjectId owner) {
  std::string p;
  PutFixed32(&p, owner);
  return p;
}

std::string EncodeLink(PageId old_target, PageId new_target) {
  std::string p;
  PutFixed32(&p, old_target);
  PutFixed32(&p, new_target);
  return p;
}

Status Apply(uint8_t op, std::string_view payload, PageView v) {
  BufferReader r(payload);
  switch (op) {
    case kOpInsert: {
      uint16_t slot = r.GetFixed16();
      std::string_view rec = payload.substr(2);
      // A reused slot may still carry a committed tombstone: reclaim it.
      if (slot < v.slot_count() && v.SlotTombstoned(slot)) v.PurgeSlot(slot);
      return v.PlaceCellAt(slot, rec);
    }
    case kOpDelete: {
      uint16_t slot = r.GetFixed16();
      if (slot >= v.slot_count() || v.SlotDead(slot)) {
        return Status::Corruption("heap delete: slot not live");
      }
      v.TombstoneSlot(slot);
      return Status::OK();
    }
    case kOpUpdate: {
      uint16_t slot = r.GetFixed16();
      (void)r.GetLengthPrefixed();  // old image (used by undo, not redo)
      std::string_view newer = r.GetLengthPrefixed();
      if (!r.ok()) return Status::Corruption("heap update payload");
      return v.ReplaceCellAt(slot, newer);
    }
    case kOpFormat: {
      uint32_t owner = r.GetFixed32();
      v.Init(v.page_id(), PageType::kHeap, owner, 0);
      return Status::OK();
    }
    case kOpSetNext: {
      (void)r.GetFixed32();
      uint32_t next = r.GetFixed32();
      v.set_next_page(next);
      return Status::OK();
    }
    case kOpSetTail: {
      (void)r.GetFixed32();
      SetChainTail(v, r.GetFixed32());
      return Status::OK();
    }
    case kOpUnformat: {
      v.set_type(PageType::kFree);
      return Status::OK();
    }
    case kOpRevive: {
      uint16_t slot = r.GetFixed16();
      if (slot >= v.slot_count() || !v.SlotTombstoned(slot)) {
        return Status::Corruption("heap revive: slot not tombstoned");
      }
      v.ReviveSlot(slot);
      return Status::OK();
    }
    case kOpPurge: {
      uint16_t slot = r.GetFixed16();
      if (slot >= v.slot_count()) {
        return Status::Corruption("heap purge: bad slot");
      }
      v.PurgeSlot(slot);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown heap op " + std::to_string(op));
  }
}

}  // namespace heap
}  // namespace ariesim
