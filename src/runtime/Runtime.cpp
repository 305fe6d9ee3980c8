//===- runtime/Runtime.cpp - Instrumented execution environment ------------===//

#include "runtime/Runtime.h"

#include "trace/EventTrace.h"
#include "trace/TraceFile.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace halo;

RuntimeObserver::~RuntimeObserver() = default;
void RuntimeObserver::onCall(CallSiteId) {}
void RuntimeObserver::onReturn(CallSiteId) {}
void RuntimeObserver::onAlloc(uint64_t, uint64_t, CallSiteId) {}
void RuntimeObserver::onFree(uint64_t) {}
void RuntimeObserver::onAccess(uint64_t, uint64_t, bool) {}
void RuntimeObserver::onCompute(uint64_t) {}
void RuntimeObserver::onReallocBegin(uint64_t, uint64_t, CallSiteId) {}
void RuntimeObserver::onReallocEnd(uint64_t) {}

void RuntimeObserver::onAccessBatch(const MemAccess *Batch, size_t N) {
  for (size_t I = 0; I < N; ++I)
    onAccess(Batch[I].Addr, Batch[I].Size, Batch[I].IsStore);
}

RuntimeObserver::AccessHookFn RuntimeObserver::accessHook() {
  return [](RuntimeObserver &Self, uint64_t Addr, uint64_t Size,
            bool IsStore) { Self.onAccess(Addr, Size, IsStore); };
}

Runtime::Runtime(const Program &Prog, Allocator &Alloc)
    : Prog(Prog), Alloc(&Alloc) {}

Runtime::Runtime(const Program &Prog, Allocator &Alloc, const CostModel &Costs)
    : Prog(Prog), Alloc(&Alloc), Timing(Costs) {}

void Runtime::setInstrumentation(const InstrumentationPlan *NewPlan) {
  assert(Stack.empty() && "cannot swap binaries mid-run");
  Plan = NewPlan;
  State.resize(Plan ? Plan->numBits() : 0);
}

void Runtime::addObserver(RuntimeObserver *Observer) {
  assert(Observer && "null observer");
  Observers.push_back(Observer);
  SoleAccessHook = Observers.size() == 1 ? Observer->accessHook() : nullptr;
}

void Runtime::notifyAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
  if (SoleAccessHook) {
    SoleAccessHook(*Observers.front(), Addr, Size, IsStore);
    return;
  }
  for (RuntimeObserver *Obs : Observers)
    Obs->onAccess(Addr, Size, IsStore);
}

void Runtime::enter(CallSiteId Site) {
  assert(Site < Prog.numCallSites() && "unknown call site");
  ++Stats.Calls;
  int32_t Bit = Plan ? Plan->bitFor(Site) : -1;
  if (Bit >= 0) {
    State.set(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  Stack.push_back(FrameRecord{Site, Bit});
  for (RuntimeObserver *Obs : Observers)
    Obs->onCall(Site);
}

void Runtime::leave() {
  assert(!Stack.empty() && "leave without enter");
  FrameRecord Frame = Stack.back();
  Stack.pop_back();
  if (Frame.Bit >= 0) {
    // Naive straight-line unset, exactly as the inserted code behaves: a
    // recursive inner return clears the bit even if an outer activation of
    // the same site is still live.
    State.unset(static_cast<uint32_t>(Frame.Bit));
    Timing.addInstrumentationOp();
  }
  for (RuntimeObserver *Obs : Observers)
    Obs->onReturn(Frame.Site);
}

uint64_t Runtime::malloc(uint64_t Size, CallSiteId MallocSite) {
  assert(Prog.isMallocSite(MallocSite) &&
         "allocation must go through a malloc call site");
  // The BOLT pass may instrument the malloc call site itself; the inserted
  // code sets the bit before the call, so the allocator observes it set.
  int32_t Bit = Plan ? Plan->bitFor(MallocSite) : -1;
  if (Bit >= 0) {
    State.set(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  uint64_t Addr = Alloc->allocate(AllocRequest{Size, MallocSite});
  if (Bit >= 0) {
    State.unset(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  Timing.addAllocatorCall();
  ++Stats.Allocs;
  for (RuntimeObserver *Obs : Observers)
    Obs->onAlloc(Addr, Size, MallocSite);
  return Addr;
}

uint64_t Runtime::calloc(uint64_t Count, uint64_t Size,
                         CallSiteId MallocSite) {
  uint64_t Total = Count * Size;
  uint64_t Addr = malloc(Total, MallocSite);
  if (Total > 0 && Total < 4096)
    store(Addr, Total);
  return Addr;
}

uint64_t Runtime::realloc(uint64_t Addr, uint64_t NewSize,
                          CallSiteId MallocSite) {
  if (Addr == 0)
    return malloc(NewSize, MallocSite);
  for (RuntimeObserver *Obs : Observers)
    Obs->onReallocBegin(Addr, NewSize, MallocSite);
  uint64_t CopyBytes = std::min(Alloc->usableSize(Addr), NewSize);
  uint64_t NewAddr = malloc(NewSize, MallocSite);
  for (uint64_t Off = 0; Off < CopyBytes; Off += 64) {
    uint64_t Span = std::min<uint64_t>(64, CopyBytes - Off);
    load(Addr + Off, Span);
    store(NewAddr + Off, Span);
  }
  free(Addr);
  for (RuntimeObserver *Obs : Observers)
    Obs->onReallocEnd(NewAddr);
  return NewAddr;
}

void Runtime::free(uint64_t Addr) {
  if (Addr == 0)
    return;
  for (RuntimeObserver *Obs : Observers)
    Obs->onFree(Addr);
  Alloc->deallocate(Addr);
  Timing.addAllocatorCall();
  ++Stats.Frees;
}

/// Narrows a decoded access size into the batch encoding. No modelled
/// access approaches 4 GiB (workload accesses are object-sized; realloc
/// copy spans are 64 bytes), and a wrap here would silently break replay
/// bit-identity, so debug builds assert; Release builds trade the
/// per-event check away, relying on tests/trace_replay_test.cpp's
/// replay-vs-direct sweeps to catch any workload that ever violates it.
static uint32_t batchSize(uint64_t Size) {
  assert(Size <= UINT32_MAX && "access size exceeds the batch encoding");
  return static_cast<uint32_t>(Size);
}

void Runtime::replayAccessRun(const MemAccess *Batch, size_t N,
                              uint64_t Stores) {
  Stats.Loads += N - Stores;
  Stats.Stores += Stores;
  if (Memory)
    Timing.addMemory(Memory->accessBatch(Batch, N));
  for (RuntimeObserver *Obs : Observers)
    Obs->onAccessBatch(Batch, N);
}

/// Replay state shared across decoded ranges (see Runtime.h). A mapped
/// replay feeds many ranges -- one per block -- through one state, so the
/// pending batch rides across block boundaries untouched and the counters
/// come out bit-identical to the single-range in-RAM replay.
struct Runtime::ReplayState {
  static constexpr size_t BatchCap = 512;

  explicit ReplayState(uint32_t NumObjects, bool Strict) : Strict(Strict) {
    // Replay-time object table: the Nth minted object's address under
    // *this* runtime's allocator. Frees leave entries stale, exactly like
    // a freed pointer; the recorder never emits accesses through them.
    ObjAddr.reserve(NumObjects);
    Batch.resize(BatchCap);
  }

  std::vector<uint64_t> ObjAddr;
  std::vector<MemAccess> Batch;
  size_t Run = 0;
  uint64_t RunStores = 0;
  const bool Strict;
};

void Runtime::replayRange(ReplayState &St, const uint8_t *Begin,
                          const uint8_t *End) {
  // Batch loop: decoding resolves every data access (the dominant event
  // shape) straight into a flat MemAccess batch -- ids become final
  // addresses at decode time -- and each batch is consumed whole by the
  // memory hierarchy and the observers, so the TLB/L1 fast path spins in
  // a tight loop with no call per event.
  //
  // How long a batch may grow is the crux. With observers attached
  // (profiling replay), every observable event must be delivered in
  // recording order, so any non-access record flushes the pending batch
  // first. Unobserved (the measurement configuration), the only true
  // ordering dependency is the hierarchy's own access sequence: calls,
  // allocations, frees, and computes never touch the hierarchy, and their
  // effects -- stack/group-state updates, allocator bookkeeping, counter
  // and cycle sums -- neither read the pending accesses nor are read by
  // them (addresses are already resolved). They therefore execute inline
  // while the batch keeps filling. The one exception is Realloc, whose
  // composite copy traffic drives the hierarchy through load()/store()
  // and so must see the batch drained first. Either way every counter is
  // bit-identical to per-event replay: batching only regroups commutative
  // additions around events it never reorders against their dependencies.
  constexpr size_t BatchCap = ReplayState::BatchCap;
  std::vector<uint64_t> &ObjAddr = St.ObjAddr;
  std::vector<MemAccess> &Batch = St.Batch;
  size_t Run = St.Run;
  uint64_t RunStores = St.RunStores;
  const bool Strict = St.Strict;

  auto Flush = [&] {
    if (Run) {
      replayAccessRun(Batch.data(), Run, RunStores);
      Run = 0;
      RunStores = 0;
    }
  };

  EventTrace::Reader R(Begin, End);
  while (!R.atEnd()) {
    switch (R.op()) {
    case TraceOp::Call: {
      CallSiteId Site = static_cast<CallSiteId>(R.varint());
      if (Strict)
        Flush();
      enter(Site);
      break;
    }
    case TraceOp::Return:
      if (Strict)
        Flush();
      leave();
      break;
    case TraceOp::Alloc: {
      CallSiteId Site = static_cast<CallSiteId>(R.varint());
      uint64_t Size = R.varint();
      if (Strict)
        Flush();
      ObjAddr.push_back(malloc(Size, Site));
      break;
    }
    case TraceOp::Free: {
      uint64_t Id = R.varint();
      if (Strict)
        Flush();
      free(ObjAddr[Id]);
      break;
    }
    case TraceOp::Load: {
      uint64_t Id = R.varint();
      uint64_t Offset = R.varint();
      Batch[Run++] =
          MemAccess{ObjAddr[Id] + Offset,
                    batchSize(R.varint()), 0};
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::Store: {
      uint64_t Id = R.varint();
      uint64_t Offset = R.varint();
      Batch[Run++] =
          MemAccess{ObjAddr[Id] + Offset,
                    batchSize(R.varint()), 1};
      ++RunStores;
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::LoadBase: {
      uint64_t Addr = ObjAddr[R.varint()];
      Batch[Run++] =
          MemAccess{Addr, batchSize(R.varint()), 0};
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::StoreBase: {
      uint64_t Addr = ObjAddr[R.varint()];
      Batch[Run++] =
          MemAccess{Addr, batchSize(R.varint()), 1};
      ++RunStores;
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::LoadRaw: {
      uint64_t Addr = R.varint();
      Batch[Run++] =
          MemAccess{Addr, batchSize(R.varint()), 0};
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::StoreRaw: {
      uint64_t Addr = R.varint();
      Batch[Run++] =
          MemAccess{Addr, batchSize(R.varint()), 1};
      ++RunStores;
      if (Run == BatchCap)
        Flush();
      break;
    }
    case TraceOp::Compute: {
      uint64_t Cycles = R.varint();
      if (Strict) {
        Flush();
        compute(Cycles);
      } else {
        // compute() without observers is just the cycle add.
        Timing.addCompute(Cycles);
      }
      break;
    }
    case TraceOp::Realloc: { // old object id, site, new size.
      uint64_t Old = R.varint();
      CallSiteId Site = static_cast<CallSiteId>(R.varint());
      uint64_t NewSize = R.varint();
      Flush(); // The composite's copy traffic drives the hierarchy.
      ObjAddr.push_back(realloc(ObjAddr[Old], NewSize, Site));
      break;
    }
    }
  }
  St.Run = Run;
  St.RunStores = RunStores;
}

void Runtime::replay(const EventTrace &Trace) {
  assert(!Trace.streaming() && "a streaming trace has left RAM; replay it "
                               "through its MappedTrace");
  ReplayState St(Trace.numObjects(), !Observers.empty());
  replayRange(St, Trace.data(), Trace.data() + Trace.byteSize());
  if (St.Run)
    replayAccessRun(St.Batch.data(), St.Run, St.RunStores);
}

void Runtime::replay(const MappedTrace &Trace) {
  ReplayState St(Trace.numObjects(), !Observers.empty());
  // One decoded block resident at a time; the pending batch carries
  // across block boundaries (blocks are whole records, and batch growth
  // only regroups commutative additions), so the counters match the
  // in-RAM replay bit for bit.
  std::vector<uint8_t> Scratch;
  for (size_t B = 0, N = Trace.numBlocks(); B < N; ++B) {
    Trace.decodeBlock(B, Scratch);
    replayRange(St, Scratch.data(), Scratch.data() + Scratch.size());
    Trace.releaseBlock(B);
  }
  if (St.Run)
    replayAccessRun(St.Batch.data(), St.Run, St.RunStores);
}
