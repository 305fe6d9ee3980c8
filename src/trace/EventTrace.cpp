//===- trace/EventTrace.cpp - Record-once/replay-many event traces ----------===//

#include "trace/EventTrace.h"

#include "support/BinaryIO.h"
#include "support/Hash.h"
#include "support/Lz.h"
#include "trace/TraceFile.h"

#include <cassert>
#include <cstring>

using namespace halo;

size_t EventTrace::Cursor::fill(TraceEvent *Out, size_t MaxN) {
  size_t N = 0;
  while (N < MaxN && !R.atEnd()) {
    TraceEvent &E = Out[N++];
    E.Op = R.op();
    decodeTraceOperands(R, E.Op, E);
  }
  return N;
}

void TraceRecorder::onCall(CallSiteId Site) { Trace.recordCall(Site); }

void TraceRecorder::onReturn(CallSiteId) { Trace.recordReturn(); }

void TraceRecorder::onAlloc(uint64_t Addr, uint64_t Size,
                            CallSiteId MallocSite) {
  // Sequential id assignment and the trace's implicit minting advance in
  // lockstep: every allocation lands here, and every allocation is minted
  // either by recordAlloc below or by the enclosing composite's
  // recordRealloc.
  if (Arena) {
    assert(Arena->idOf(Addr) ==
               Trace.numObjects() - (InRealloc ? 1 : 0) &&
           "arena ids diverged from the trace's minting order");
    if (!InRealloc)
      Trace.recordAlloc(MallocSite, Size);
    return;
  }
  ObjectId Id = static_cast<ObjectId>(Spans.size());
  Spans.push_back(ObjectSpan{Addr, Size ? Size : 1});
  ByBase.insert(Addr, Id);
  Pending.push_back(IntervalOp{Addr, Id});
  if (InRealloc)
    return;
  [[maybe_unused]] ObjectId Minted = Trace.recordAlloc(MallocSite, Size);
  assert(Minted == Id && "trace object ids diverged from the recorder's");
}

void TraceRecorder::onFree(uint64_t Addr) {
  if (Arena) {
    // The runtime notifies before the arena retires the object, so the id
    // still resolves here.
    ObjectId Id = Arena->idOf(Addr);
    assert(Id != ~0u && Arena->liveId(Id) && "freeing a dead object");
    if (!InRealloc)
      Trace.recordFree(Id);
    return;
  }
  const uint32_t *Id = ByBase.find(Addr);
  assert(Id && "freeing an address no live object starts at");
  ObjectId Freed = *Id;
  ByBase.erase(Addr);
  Pending.push_back(IntervalOp{Addr, ~0u});
  if (!InRealloc)
    Trace.recordFree(Freed);
}

/// Slow path: resolve an interior pointer (or report a non-heap address)
/// through the ordered interval map, synchronising it first.
ObjectId TraceRecorder::findInterior(uint64_t Addr) {
  for (const IntervalOp &Op : Pending) {
    if (Op.Id == ~0u)
      Intervals.erase(Op.Addr);
    else
      Intervals[Op.Addr] = Op.Id;
  }
  Pending.clear();
  auto It = Intervals.upper_bound(Addr);
  if (It == Intervals.begin())
    return ~0u;
  --It;
  const ObjectSpan &Span = Spans[It->second];
  return Addr < Span.Addr + Span.Size ? It->second : ~0u;
}

void TraceRecorder::handleAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
  if (InRealloc)
    return; // The copy loop's length is allocator-dependent; replay
            // re-derives it from the composite Realloc record.
  if (Arena) {
    ObjectId Id = Arena->idOf(Addr);
    if (Id != ~0u && Arena->liveId(Id))
      Trace.recordAccess(Id, Addr & ((1ull << RecordingArena::IdShift) - 1),
                         Size, IsStore);
    else
      Trace.recordRawAccess(Addr, Size, IsStore);
    return;
  }
  if (const uint32_t *Id = ByBase.find(Addr)) {
    Trace.recordAccess(*Id, 0, Size, IsStore);
    return;
  }
  ObjectId Id = findInterior(Addr);
  if (Id != ~0u)
    Trace.recordAccess(Id, Addr - Spans[Id].Addr, Size, IsStore);
  else
    Trace.recordRawAccess(Addr, Size, IsStore);
}

void TraceRecorder::onAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
  handleAccess(Addr, Size, IsStore);
}

void TraceRecorder::onAccessBatch(const MemAccess *Batch, size_t N) {
  for (size_t I = 0; I < N; ++I)
    handleAccess(Batch[I].Addr, Batch[I].Size, Batch[I].IsStore);
}

RuntimeObserver::AccessHookFn TraceRecorder::accessHook() {
  return [](RuntimeObserver &Self, uint64_t Addr, uint64_t Size,
            bool IsStore) {
    static_cast<TraceRecorder &>(Self).handleAccess(Addr, Size, IsStore);
  };
}

void TraceRecorder::onCompute(uint64_t Cycles) { Trace.recordCompute(Cycles); }

void TraceRecorder::onReallocBegin(uint64_t OldAddr, uint64_t NewSize,
                                   CallSiteId MallocSite) {
  assert(!InRealloc && "realloc cannot nest");
  ObjectId OldId;
  if (Arena) {
    OldId = Arena->idOf(OldAddr);
  } else {
    const uint32_t *Found = ByBase.find(OldAddr);
    OldId = Found ? *Found : ~0u;
  }
  assert(OldId != ~0u && "realloc of an address no live object starts at");
  Trace.recordRealloc(OldId, MallocSite, NewSize);
  InRealloc = true;
}

void TraceRecorder::onReallocEnd(uint64_t) { InRealloc = false; }

//===----------------------------------------------------------------------===//
// Streaming recording
//===----------------------------------------------------------------------===//

void EventTrace::streamTo(TraceFileWriter &NewSink, uint64_t BlockBytes) {
  assert(Buffer.empty() && Counts.total() == 0 &&
         "streaming must start from an empty trace");
  Sink = &NewSink;
  SinkBlockBytes = BlockBytes ? BlockBytes : TraceBlockBytes;
}

void EventTrace::flushSinkBlock() {
  // record* methods count a record only after emit() returns, and the
  // flush runs before emit() appends, so the buffer here is exactly the
  // whole records the counters describe.
  Sink->addBlock(Buffer.data(), Buffer.size(), Counts.total());
  StreamedBytes += Buffer.size();
  Buffer.clear();
}

bool EventTrace::finishStream() {
  assert(Sink && "finishStream without streamTo");
  if (!Buffer.empty())
    flushSinkBlock();
  TraceFileWriter *S = Sink;
  Sink = nullptr;
  SinkBlockBytes = 0;
  return S->finish(Counts, Objects);
}

//===----------------------------------------------------------------------===//
// Serialization (the block format of trace/TraceFile.h)
//===----------------------------------------------------------------------===//

void EventTrace::save(BinaryWriter &W, uint64_t BlockBytes) const {
  assert(!Sink && "a streaming trace has already left RAM");
  if (BlockBytes == 0)
    BlockBytes = TraceBlockBytes;
  TraceFileWriter FW(W);
  // Cut the buffer into blocks of whole records by the same rule the
  // streaming flush applies -- the shortest record prefix of at least
  // BlockBytes -- so saving after the fact reproduces a streamed file
  // byte for byte. Skipping a record needs no operand decoding, just
  // the varint continuation bit.
  const uint8_t *P = Buffer.data(), *End = P + Buffer.size();
  const uint8_t *BlockStart = P;
  uint64_t Events = 0;
  while (P != End) {
    TraceOp Op = static_cast<TraceOp>(*P++);
    for (unsigned K = traceOperandCount(Op); K; --K) {
      while (*P & 0x80)
        ++P;
      ++P;
    }
    ++Events;
    if (static_cast<uint64_t>(P - BlockStart) >= BlockBytes) {
      FW.addBlock(BlockStart, static_cast<size_t>(P - BlockStart), Events);
      BlockStart = P;
    }
  }
  if (P != BlockStart)
    FW.addBlock(BlockStart, static_cast<size_t>(P - BlockStart), Events);
  FW.finish(Counts, Objects);
}

EventTrace EventTrace::load(BinaryReader &R) {
  // The trace image spans the remainder of the buffer (store entries end
  // with the trace payload; getTrace's expectEnd holds the contract).
  const uint8_t *Image = R.cursor();
  size_t Size = R.remaining();
  TraceIndex Idx = parseTraceIndex(Image, Size);
  EventTrace Trace;
  Trace.Counts = Idx.Counts;
  Trace.Objects = static_cast<ObjectId>(Idx.Objects);
  Trace.Buffer.resize(static_cast<size_t>(Idx.TotalRawBytes));
  const uint8_t *Blocks = Image + TraceHeaderBytes;
  for (const TraceBlockInfo &B : Idx.Blocks) {
    const uint8_t *Payload = Blocks + B.FileOffset;
    if (fnv1a(Payload, static_cast<size_t>(B.CompBytes)) != B.Checksum)
      throw SerializationError("trace file: block checksum mismatch");
    uint8_t *Dst = Trace.Buffer.data() + B.RawOffset;
    if (B.Method == 0)
      std::memcpy(Dst, Payload, static_cast<size_t>(B.CompBytes));
    else
      lz::decompress(Payload, static_cast<size_t>(B.CompBytes), Dst,
                     static_cast<size_t>(B.RawBytes));
  }
  R.skip(Size);
  return Trace;
}
