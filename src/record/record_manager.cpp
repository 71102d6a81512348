#include "record/record_manager.h"

#include "record/heap_page.h"
#include "util/coding.h"

namespace ariesim {

Status RecordManager::Redo(const LogRecord& rec, PageView page) {
  return heap::Apply(rec.op, rec.payload, page);
}

Status RecordManager::Undo(Transaction* txn, const LogRecord& rec) {
  ARIES_ASSIGN_OR_RETURN(
      PageGuard page, ctx_->pool->FetchPage(rec.page_id, LatchMode::kExclusive));
  LogRecord clr;
  clr.type = LogType::kCompensation;
  clr.rm = RmId::kHeap;
  clr.page_id = rec.page_id;
  clr.undo_next_lsn = rec.prev_lsn;
  BufferReader r(rec.payload);
  switch (rec.op) {
    case heap::kOpInsert: {
      uint16_t slot = r.GetFixed16();
      clr.op = heap::kOpPurge;
      clr.payload = heap::EncodeSlot(slot);
      break;
    }
    case heap::kOpDelete: {
      uint16_t slot = r.GetFixed16();
      clr.op = heap::kOpRevive;
      clr.payload = heap::EncodeSlot(slot);
      break;
    }
    case heap::kOpUpdate: {
      uint16_t slot = r.GetFixed16();
      std::string_view older = r.GetLengthPrefixed();
      std::string_view newer = r.GetLengthPrefixed();
      clr.op = heap::kOpUpdate;
      clr.payload = heap::EncodeUpdate(slot, newer, older);  // swapped
      break;
    }
    case heap::kOpFormat: {
      clr.op = heap::kOpUnformat;
      break;
    }
    case heap::kOpSetNext:
    case heap::kOpSetTail: {
      PageId old_target = r.GetFixed32();
      PageId new_target = r.GetFixed32();
      clr.op = rec.op;
      clr.payload = heap::EncodeLink(new_target, old_target);  // swapped
      break;
    }
    default:
      return Status::Corruption("cannot undo heap op " + std::to_string(rec.op));
  }
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, ctx_->txns->AppendTxnLog(txn, &clr));
  ARIES_RETURN_NOT_OK(heap::Apply(clr.op, clr.payload, page.view()));
  page.MarkDirty(lsn);
  if (ctx_->metrics != nullptr) {
    ctx_->metrics->page_oriented_undos.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RecordManager::LockRecord(Transaction* txn, ObjectId table, Rid rid,
                                 LockMode mode, LockDuration duration,
                                 bool conditional) {
  LockGranularity g = ctx_->options.lock_granularity;
  if (g != LockGranularity::kTable) {
    LockMode intent = (mode == LockMode::kS || mode == LockMode::kIS)
                          ? LockMode::kIS
                          : LockMode::kIX;
    ARIES_RETURN_NOT_OK(ctx_->locks->Lock(txn->id(), LockName::Table(table),
                                          intent, LockDuration::kCommit,
                                          /*conditional=*/false));
  }
  return ctx_->locks->Lock(txn->id(), DataLockName(g, table, rid), mode,
                           duration, conditional);
}

Result<Rid> RecordManager::InsertRecord(Transaction* txn, HeapFile* heap,
                                        std::string_view record) {
  if (ctx_->options.lock_granularity != LockGranularity::kTable) {
    ARIES_RETURN_NOT_OK(ctx_->locks->Lock(
        txn->id(), LockName::Table(heap->table_id()), LockMode::kIX,
        LockDuration::kCommit, /*conditional=*/false));
  } else {
    ARIES_RETURN_NOT_OK(ctx_->locks->Lock(
        txn->id(), LockName::Table(heap->table_id()), LockMode::kX,
        LockDuration::kCommit, /*conditional=*/false));
  }
  return heap->Insert(txn, record);
}

Status RecordManager::DeleteRecord(Transaction* txn, HeapFile* heap, Rid rid) {
  ARIES_RETURN_NOT_OK(LockRecord(txn, heap->table_id(), rid, LockMode::kX,
                                 LockDuration::kCommit, /*conditional=*/false));
  return heap->Delete(txn, rid);
}

Result<std::string> RecordManager::FetchRecord(Transaction* txn, HeapFile* heap,
                                               Rid rid, bool already_locked) {
  if (!already_locked) {
    ARIES_RETURN_NOT_OK(LockRecord(txn, heap->table_id(), rid, LockMode::kS,
                                   LockDuration::kCommit, /*conditional=*/false));
  }
  return heap->Fetch(rid);
}

Status RecordManager::UpdateRecord(Transaction* txn, HeapFile* heap, Rid rid,
                                   std::string_view record) {
  ARIES_RETURN_NOT_OK(LockRecord(txn, heap->table_id(), rid, LockMode::kX,
                                 LockDuration::kCommit, /*conditional=*/false));
  return heap->Update(txn, rid, record);
}

}  // namespace ariesim
