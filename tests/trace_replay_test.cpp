//===- tests/trace_replay_test.cpp - Record/replay equivalence ---------------===//
//
// The record-once/replay-many contract: an EventTrace recorded from one
// workload run, replayed on a fresh runtime under *any* allocator
// configuration, must produce RunMetrics bit-identical to executing the
// workload directly under that configuration. Direct execution stays in
// the tree (Evaluation::measureDirect) purely as the oracle these tests
// compare against.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "mem/BoundaryTagAllocator.h"
#include "mem/SizeClassAllocator.h"
#include "trace/EventTrace.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace halo;

namespace {

const AllocatorKind AllKinds[] = {
    AllocatorKind::Jemalloc,     AllocatorKind::Ptmalloc,
    AllocatorKind::Halo,         AllocatorKind::Hds,
    AllocatorKind::RandomPools,  AllocatorKind::HaloInstrumentedOnly,
};

const char *kindName(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::Jemalloc:
    return "jemalloc";
  case AllocatorKind::Ptmalloc:
    return "ptmalloc";
  case AllocatorKind::Halo:
    return "halo";
  case AllocatorKind::Hds:
    return "hds";
  case AllocatorKind::RandomPools:
    return "random-pools";
  case AllocatorKind::HaloInstrumentedOnly:
    return "halo-instrumented-only";
  }
  return "?";
}

/// Field-by-field bit-identity of everything a run measures.
void expectSameMetrics(const RunMetrics &Direct, const RunMetrics &Replayed,
                       const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(Direct.Cycles, Replayed.Cycles);
  EXPECT_DOUBLE_EQ(Direct.Seconds, Replayed.Seconds);
  EXPECT_EQ(Direct.Mem.Accesses, Replayed.Mem.Accesses);
  EXPECT_EQ(Direct.Mem.L1Misses, Replayed.Mem.L1Misses);
  EXPECT_EQ(Direct.Mem.L2Misses, Replayed.Mem.L2Misses);
  EXPECT_EQ(Direct.Mem.L3Misses, Replayed.Mem.L3Misses);
  EXPECT_EQ(Direct.Mem.TlbMisses, Replayed.Mem.TlbMisses);
  EXPECT_EQ(Direct.Mem.StallCycles, Replayed.Mem.StallCycles);
  EXPECT_EQ(Direct.Events.Calls, Replayed.Events.Calls);
  EXPECT_EQ(Direct.Events.Allocs, Replayed.Events.Allocs);
  EXPECT_EQ(Direct.Events.Frees, Replayed.Events.Frees);
  EXPECT_EQ(Direct.Events.Loads, Replayed.Events.Loads);
  EXPECT_EQ(Direct.Events.Stores, Replayed.Events.Stores);
  EXPECT_EQ(Direct.InstrumentationOps, Replayed.InstrumentationOps);
  EXPECT_EQ(Direct.Frag.PeakResident, Replayed.Frag.PeakResident);
  EXPECT_EQ(Direct.Frag.LiveAtPeak, Replayed.Frag.LiveAtPeak);
  EXPECT_EQ(Direct.GroupedAllocs, Replayed.GroupedAllocs);
  EXPECT_EQ(Direct.ForwardedAllocs, Replayed.ForwardedAllocs);
}

class TraceReplayTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(TraceReplayTest, ReplayMatchesDirectExecutionUnderEveryAllocator) {
  Evaluation Eval(paperSetup(GetParam()));
  for (AllocatorKind Kind : AllKinds) {
    RunMetrics Direct = Eval.measureDirect(Kind, Scale::Test, 7);
    RunMetrics Replayed = Eval.measure(Kind, Scale::Test, 7);
    expectSameMetrics(Direct, Replayed,
                      GetParam() + " under " + kindName(Kind));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceReplayTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });

TEST(TraceReplay, CountsMatchTheRecordedRunsStats) {
  auto W = createWorkload("health");
  Program P;
  W->build(P);

  EventTrace Trace;
  SizeClassAllocator Alloc;
  Runtime RT(P, Alloc);
  TraceRecorder Recorder(Trace);
  RT.addObserver(&Recorder);
  W->run(RT, Scale::Test, 5);

  const TraceCounts &C = Trace.counts();
  const RuntimeStats &S = RT.stats();
  EXPECT_EQ(C.Calls, S.Calls);
  EXPECT_EQ(C.Returns, S.Calls); // Every Scope that enters leaves.
  EXPECT_EQ(C.Allocs + C.Reallocs, S.Allocs);
  EXPECT_EQ(C.Loads + C.RawLoads, S.Loads);
  EXPECT_EQ(C.Stores + C.RawStores, S.Stores);
  EXPECT_EQ(Trace.numObjects(), S.Allocs);
  EXPECT_GT(Trace.numEvents(), 0u);
  EXPECT_GT(Trace.byteSize(), 0u);
  // The encoding stays compact: a handful of bytes per event.
  EXPECT_LT(Trace.byteSize(), Trace.numEvents() * 8);
}

TEST(TraceReplay, ReallocCallocAndRawAccessesRoundTrip) {
  // A hand-driven program exercising the paths no workload model hits:
  // calloc's zeroing stores, realloc's allocator-dependent copy loop (the
  // usable size under a boundary-tag allocator differs from the recording
  // allocator's size class), and raw non-heap accesses.
  Program P;
  FunctionId Main = P.addFunction("main");
  CallSiteId Site = P.addMallocSite(Main, "main>malloc");
  auto Drive = [&](Runtime &RT) {
    uint64_t A = RT.malloc(40, Site);
    RT.store(A, 40);
    uint64_t B = RT.calloc(8, 16, Site);
    RT.load(B, 128);
    A = RT.realloc(A, 200, Site); // Copies min(usableSize(A), 200) bytes.
    RT.store(A + 64, 8);
    A = RT.realloc(A, 16, Site); // Shrinking copies only 16 bytes.
    RT.load(0x1234, 8);          // Stack/global traffic: recorded raw.
    RT.compute(500);
    RT.free(A);
    RT.free(B);
    RT.free(0); // free(NULL) is a no-op and must not enter the trace.
  };

  EventTrace Trace;
  {
    SizeClassAllocator RecordAlloc;
    Runtime RT(P, RecordAlloc);
    TraceRecorder Recorder(Trace);
    RT.addObserver(&Recorder);
    Drive(RT);
  }
  EXPECT_EQ(Trace.counts().Reallocs, 2u);
  EXPECT_EQ(Trace.counts().Allocs, 2u);
  EXPECT_EQ(Trace.counts().RawLoads, 1u);
  EXPECT_EQ(Trace.counts().Computes, 1u);
  EXPECT_EQ(Trace.numObjects(), 4u);

  // Direct vs replayed under an allocator with different usable sizes.
  auto Measure = [&](bool Replay) {
    MemoryHierarchy Memory;
    BoundaryTagAllocator Ptmalloc;
    Runtime RT(P, Ptmalloc);
    RT.setMemory(&Memory);
    if (Replay)
      RT.replay(Trace);
    else
      Drive(RT);
    return std::make_tuple(RT.timing().totalCycles(), RT.stats().Loads,
                           RT.stats().Stores, RT.stats().Allocs,
                           RT.stats().Frees, Memory.counters().L1Misses,
                           Memory.counters().Accesses);
  };
  EXPECT_EQ(Measure(false), Measure(true));
}

TEST(TraceReplay, PipelineFromTraceMatchesDirectProfiling) {
  auto W = createWorkload("povray");
  Program P;
  W->build(P);
  auto Run = [&](Runtime &RT) { W->run(RT, Scale::Test, 1); };

  EventTrace Trace;
  {
    SizeClassAllocator RecordAlloc;
    Runtime RT(P, RecordAlloc);
    TraceRecorder Recorder(Trace);
    RT.addObserver(&Recorder);
    Run(RT);
  }

  HaloArtifacts Direct = optimizeBinary(P, Run);
  HaloArtifacts Replayed = optimizeBinary(P, Trace);
  EXPECT_EQ(Direct.ProfiledAccesses, Replayed.ProfiledAccesses);
  EXPECT_EQ(Direct.Plan.sites(), Replayed.Plan.sites());
  ASSERT_EQ(Direct.Groups.size(), Replayed.Groups.size());
  for (size_t G = 0; G < Direct.Groups.size(); ++G) {
    EXPECT_EQ(Direct.Groups[G].Members, Replayed.Groups[G].Members);
    EXPECT_EQ(Direct.Groups[G].Weight, Replayed.Groups[G].Weight);
  }

  HdsArtifacts HdsDirect = optimizeBinaryHds(P, Run);
  HdsArtifacts HdsReplayed = optimizeBinaryHds(P, Trace);
  EXPECT_EQ(HdsDirect.SiteToGroup, HdsReplayed.SiteToGroup);
  EXPECT_EQ(HdsDirect.Groups.size(), HdsReplayed.Groups.size());
}

TEST(TraceReplay, CursorChunkDecodeMatchesReaderDecode) {
  // The chunked batch decoder must produce exactly the records the
  // sequential reader does, across chunk boundaries of any size.
  auto W = createWorkload("health");
  Program P;
  W->build(P);
  EventTrace Trace;
  {
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Trace, Arena);
    RT.addObserver(&Recorder);
    W->run(RT, Scale::Test, 3);
  }

  for (size_t ChunkSize : {1u, 7u, 1024u}) {
    SCOPED_TRACE("chunk " + std::to_string(ChunkSize));
    EventTrace::Reader R = Trace.reader();
    EventTrace::Cursor Cur = Trace.cursor();
    std::vector<TraceEvent> Chunk(ChunkSize);
    uint64_t Total = 0;
    while (size_t N = Cur.fill(Chunk.data(), ChunkSize)) {
      for (size_t I = 0; I < N; ++I) {
        ASSERT_FALSE(R.atEnd());
        TraceOp Op = R.op();
        ASSERT_EQ(Chunk[I].Op, Op);
        switch (Op) {
        case TraceOp::Return:
          break;
        case TraceOp::Call:
        case TraceOp::Free:
        case TraceOp::Compute:
          EXPECT_EQ(Chunk[I].A, R.varint());
          break;
        case TraceOp::Alloc:
        case TraceOp::LoadBase:
        case TraceOp::StoreBase:
        case TraceOp::LoadRaw:
        case TraceOp::StoreRaw:
          EXPECT_EQ(Chunk[I].A, R.varint());
          EXPECT_EQ(Chunk[I].B, R.varint());
          break;
        case TraceOp::Load:
        case TraceOp::Store:
        case TraceOp::Realloc:
          EXPECT_EQ(Chunk[I].A, R.varint());
          EXPECT_EQ(Chunk[I].B, R.varint());
          EXPECT_EQ(Chunk[I].C, R.varint());
          break;
        }
        ++Total;
      }
    }
    EXPECT_TRUE(R.atEnd());
    EXPECT_TRUE(Cur.atEnd());
    EXPECT_EQ(Total, Trace.numEvents());
  }
}

TEST(TraceReplay, ObservedReplayDeliversBatchesInRecordingOrder) {
  // An observer attached to a replaying runtime must see every event in
  // recording order, with access runs arriving through onAccessBatch.
  // The interleaved event sequence (not just totals) is compared against
  // a straight decode of the trace, so a dropped Strict flush -- which
  // would reorder accesses against calls/computes while keeping every
  // count intact -- fails here.
  auto W = createWorkload("ft");
  Program P;
  W->build(P);
  EventTrace Trace;
  {
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Trace, Arena);
    RT.addObserver(&Recorder);
    W->run(RT, Scale::Test, 2);
  }

  // One token per observable event, in delivery order; access batches
  // flatten to one token per access (with the store flag).
  struct SequenceObserver final : RuntimeObserver {
    std::vector<std::pair<char, uint64_t>> Seq;
    uint64_t Batches = 0;
    void onCall(CallSiteId Site) override { Seq.emplace_back('C', Site); }
    void onReturn(CallSiteId) override { Seq.emplace_back('R', 0); }
    void onAlloc(uint64_t, uint64_t Size, CallSiteId) override {
      Seq.emplace_back('M', Size);
    }
    void onFree(uint64_t) override { Seq.emplace_back('F', 0); }
    void onCompute(uint64_t Cycles) override { Seq.emplace_back('P', Cycles); }
    void onAccessBatch(const MemAccess *Batch, size_t N) override {
      ++Batches;
      for (size_t I = 0; I < N; ++I)
        Seq.emplace_back(Batch[I].IsStore ? 'S' : 'L', Batch[I].Size);
    }
  };

  SizeClassAllocator Alloc;
  Runtime RT(P, Alloc);
  SequenceObserver Obs;
  RT.addObserver(&Obs);
  RT.replay(Trace);

  // Expected sequence: the trace decoded in recording order. ft has no
  // reallocs at this scale, so every record maps to exactly one token.
  ASSERT_EQ(Trace.counts().Reallocs, 0u);
  std::vector<std::pair<char, uint64_t>> Expected;
  EventTrace::Reader R = Trace.reader();
  while (!R.atEnd()) {
    switch (R.op()) {
    case TraceOp::Call:
      Expected.emplace_back('C', R.varint());
      break;
    case TraceOp::Return:
      Expected.emplace_back('R', 0);
      break;
    case TraceOp::Alloc:
      R.varint(); // site
      Expected.emplace_back('M', R.varint());
      break;
    case TraceOp::Free:
      R.varint();
      Expected.emplace_back('F', 0);
      break;
    case TraceOp::Load:
      R.varint();
      R.varint();
      Expected.emplace_back('L', R.varint());
      break;
    case TraceOp::Store:
      R.varint();
      R.varint();
      Expected.emplace_back('S', R.varint());
      break;
    case TraceOp::LoadBase:
      R.varint();
      Expected.emplace_back('L', R.varint());
      break;
    case TraceOp::StoreBase:
      R.varint();
      Expected.emplace_back('S', R.varint());
      break;
    case TraceOp::LoadRaw:
      R.varint();
      Expected.emplace_back('L', R.varint());
      break;
    case TraceOp::StoreRaw:
      R.varint();
      Expected.emplace_back('S', R.varint());
      break;
    case TraceOp::Compute:
      Expected.emplace_back('P', R.varint());
      break;
    case TraceOp::Realloc:
      FAIL() << "unexpected realloc in the ft trace";
      break;
    }
  }
  EXPECT_EQ(Obs.Seq, Expected);
  EXPECT_GT(Obs.Batches, 0u);
}

TEST(TraceReplay, TraceCacheRecordsOncePerScaleAndSeed) {
  Evaluation Eval(paperSetup("ft"));
  const EventTrace &First = Eval.trace(Scale::Test, 9);
  const EventTrace &Second = Eval.trace(Scale::Test, 9);
  EXPECT_EQ(&First, &Second); // Same buffer, not a re-recording.
  const EventTrace &OtherSeed = Eval.trace(Scale::Test, 10);
  EXPECT_NE(&First, &OtherSeed);
}

TEST(TraceReplay, ParallelTrialsMatchSerialTrials) {
  Evaluation Eval(paperSetup("ft"));
  auto Serial =
      Eval.measureTrials(AllocatorKind::Jemalloc, Scale::Test, 6, 100,
                         /*Jobs=*/1);
  auto Parallel =
      Eval.measureTrials(AllocatorKind::Jemalloc, Scale::Test, 6, 100,
                         /*Jobs=*/4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t T = 0; T < Serial.size(); ++T)
    expectSameMetrics(Serial[T], Parallel[T],
                      "trial " + std::to_string(T));
  EXPECT_DOUBLE_EQ(Evaluation::medianSeconds(Serial),
                   Evaluation::medianSeconds(Parallel));
  EXPECT_DOUBLE_EQ(Evaluation::medianL1Misses(Serial),
                   Evaluation::medianL1Misses(Parallel));

  // The grouped kinds exercise artifact materialisation before fan-out.
  auto HaloSerial =
      Eval.measureTrials(AllocatorKind::Halo, Scale::Test, 4, 100,
                         /*Jobs=*/1);
  auto HaloParallel =
      Eval.measureTrials(AllocatorKind::Halo, Scale::Test, 4, 100,
                         /*Jobs=*/4);
  for (size_t T = 0; T < HaloSerial.size(); ++T)
    expectSameMetrics(HaloSerial[T], HaloParallel[T],
                      "halo trial " + std::to_string(T));
}

TEST(TraceShard, RunPlanModesAgree) {
  // The plan scheduler itself: the same 1x1x1 plan (the halo_cli
  // run/baseline/hds shape) must produce identical results under every
  // replay mode and jobs count.
  auto RunWith = [&](int Jobs, ReplayMode Mode) {
    ExperimentSpec Spec;
    Spec.Benchmarks = {"health"};
    Spec.Kinds = {AllocatorKind::Halo};
    Spec.S = Scale::Test;
    Spec.Trials = 2;
    ExperimentPlan Plan = buildPlan({Spec});
    return runPlan(Plan, Jobs, Mode);
  };
  ResultSet Serial = RunWith(1, ReplayMode::Auto);
  ASSERT_EQ(Serial.size(), 1u);
  for (int Jobs : {1, 2, 4})
    for (ReplayMode Mode : {ReplayMode::Auto}) {
      ResultSet Got = RunWith(Jobs, Mode);
      ASSERT_EQ(Serial.size(), Got.size());
      for (size_t C = 0; C < Serial.cells().size(); ++C) {
        ASSERT_EQ(Serial.cells()[C].Runs.size(), Got.cells()[C].Runs.size());
        for (size_t R = 0; R < Serial.cells()[C].Runs.size(); ++R)
          expectSameMetrics(Serial.cells()[C].Runs[R],
                            Got.cells()[C].Runs[R],
                            "jobs=" + std::to_string(Jobs) + " run " +
                                std::to_string(R));
      }
    }
}
