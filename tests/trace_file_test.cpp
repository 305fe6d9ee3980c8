//===- tests/trace_file_test.cpp - Out-of-core trace format ------------------===//
//
// The on-disk trace contract, pinned from the bottom up: the LZ block
// codec round-trips and rejects malformed streams; streaming a recording
// to disk produces byte-for-byte the file save() writes; the footer index
// describes exactly the blocks; corruption of any byte is detected at
// open(); and -- the "mapped = in-RAM" contract -- a mapped trace replays
// bit-identically to the in-RAM oracle under every allocator kind and
// jobs count, from a raw Runtime up through runPlan.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "mem/BoundaryTagAllocator.h"
#include "mem/SizeClassAllocator.h"
#include "support/Hash.h"
#include "support/Lz.h"
#include "trace/EventTrace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <tuple>

#include <unistd.h>

using namespace halo;

namespace {

/// A temp file path, unlinked on destruction.
class TempFile {
public:
  TempFile() {
    char Template[] = "/tmp/halo_trace_file_test.XXXXXX";
    int Fd = mkstemp(Template);
    EXPECT_GE(Fd, 0);
    close(Fd);
    Path = Template;
  }
  ~TempFile() { unlink(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Records one deterministic workload run into an in-RAM trace.
EventTrace recordTrace(const std::string &Benchmark, Scale S, uint64_t Seed) {
  auto W = createWorkload(Benchmark);
  Program P;
  W->build(P);
  EventTrace Trace;
  RecordingArena Arena;
  Runtime RT(P, Arena);
  TraceRecorder Recorder(Trace, Arena);
  RT.addObserver(&Recorder);
  W->run(RT, S, Seed);
  return Trace;
}

/// save()s \p Trace into a fresh buffer.
std::vector<uint8_t> saveBytes(const EventTrace &Trace,
                               uint64_t BlockBytes = 0) {
  BinaryWriter W;
  Trace.save(W, BlockBytes);
  return W.buffer();
}

/// Writes \p Bytes to \p Path.
void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  ASSERT_EQ(std::fclose(F), 0);
}

/// Reads \p Path back whole.
std::vector<uint8_t> readFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  std::vector<uint8_t> Bytes(static_cast<size_t>(Size));
  EXPECT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
  return Bytes;
}

/// Encodes \p Idx as the version-3 footer: the documented fields and
/// nothing else (the derived offsets are not stored).
std::vector<uint8_t> encodeFooter(const TraceIndex &Idx) {
  const TraceCounts &C = Idx.Counts;
  BinaryWriter W;
  W.varint(Idx.Blocks.size());
  for (uint64_t Count : {C.Calls, C.Returns, C.Allocs, C.Frees, C.Loads,
                         C.Stores, C.RawLoads, C.RawStores, C.Computes,
                         C.Reallocs})
    W.varint(Count);
  W.varint(Idx.Objects);
  W.varint(Idx.TotalRawBytes);
  for (const TraceBlockInfo &B : Idx.Blocks) {
    W.u8(B.Method);
    W.varint(B.CompBytes);
    W.varint(B.RawBytes);
    W.varint(B.Events);
    W.u64(B.Checksum);
  }
  return W.buffer();
}

/// The footer of the trace image \p Image, located through its trailer.
std::vector<uint8_t> footerOf(const std::vector<uint8_t> &Image) {
  BinaryReader TR(Image.data() + Image.size() - TraceTrailerBytes,
                  TraceTrailerBytes);
  TR.u64(); // Footer checksum.
  uint64_t FooterBytes = TR.u64();
  auto End = Image.end() - static_cast<long>(TraceTrailerBytes);
  return std::vector<uint8_t>(End - static_cast<long>(FooterBytes), End);
}

/// \p Image with its footer replaced by \p Footer and the trailer
/// re-sealed (checksum and size recomputed): a checksum-valid image whose
/// index says whatever \p Footer says.
std::vector<uint8_t> withFooter(const std::vector<uint8_t> &Image,
                                const std::vector<uint8_t> &Footer) {
  size_t Body = Image.size() - TraceTrailerBytes - footerOf(Image).size();
  BinaryWriter W;
  W.bytes(Image.data(), Body);
  W.bytes(Footer.data(), Footer.size());
  W.u64(fnv1a(Footer.data(), Footer.size()));
  W.u64(Footer.size());
  W.u32(TraceEndMagic);
  return W.buffer();
}

const AllocatorKind AllKinds[] = {
    AllocatorKind::Jemalloc,    AllocatorKind::Ptmalloc,
    AllocatorKind::Halo,        AllocatorKind::Hds,
    AllocatorKind::RandomPools, AllocatorKind::HaloInstrumentedOnly,
};

/// Field-by-field bit-identity of everything a run measures.
void expectSameMetrics(const RunMetrics &A, const RunMetrics &B,
                       const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_DOUBLE_EQ(A.Seconds, B.Seconds);
  EXPECT_EQ(A.Mem.Accesses, B.Mem.Accesses);
  EXPECT_EQ(A.Mem.L1Misses, B.Mem.L1Misses);
  EXPECT_EQ(A.Mem.L2Misses, B.Mem.L2Misses);
  EXPECT_EQ(A.Mem.L3Misses, B.Mem.L3Misses);
  EXPECT_EQ(A.Mem.TlbMisses, B.Mem.TlbMisses);
  EXPECT_EQ(A.Mem.StallCycles, B.Mem.StallCycles);
  EXPECT_EQ(A.Frag.PeakResident, B.Frag.PeakResident);
  EXPECT_EQ(A.GroupedAllocs, B.GroupedAllocs);
  EXPECT_EQ(A.ForwardedAllocs, B.ForwardedAllocs);
  EXPECT_EQ(A.InstrumentationOps, B.InstrumentationOps);
}

} // namespace

//===----------------------------------------------------------------------===//
// The block codec
//===----------------------------------------------------------------------===//

TEST(LzCodec, RoundTripsVariedInputs) {
  std::mt19937_64 Rng(42);
  auto RoundTrip = [](const std::vector<uint8_t> &In, const char *What) {
    SCOPED_TRACE(What);
    std::vector<uint8_t> Comp = lz::compress(In.data(), In.size());
    EXPECT_LE(Comp.size(), lz::maxCompressedSize(In.size()));
    std::vector<uint8_t> Out(In.size());
    lz::decompress(Comp.data(), Comp.size(), Out.data(), Out.size());
    EXPECT_EQ(Out, In);
  };

  RoundTrip({}, "empty");
  RoundTrip({7}, "one byte");
  RoundTrip(std::vector<uint8_t>(100000, 0xAA), "constant run");

  // Incompressible: random bytes survive the raw-heavy token path.
  std::vector<uint8_t> Random(70000);
  for (uint8_t &B : Random)
    B = static_cast<uint8_t>(Rng());
  RoundTrip(Random, "random");

  // Trace-shaped: short repeating record skeletons with drifting operands,
  // long enough that matches must reach back across the 64 KiB window
  // boundary (which the codec must refuse, not mis-encode).
  std::vector<uint8_t> TraceLike;
  for (uint32_t I = 0; I < 200000; ++I) {
    TraceLike.push_back(static_cast<uint8_t>(I % 12));
    TraceLike.push_back(static_cast<uint8_t>((I / 7) & 0x7F));
    TraceLike.push_back(static_cast<uint8_t>(I & 0x3F));
  }
  RoundTrip(TraceLike, "trace-shaped");

  // Mixed: compressible spans interleaved with random ones.
  std::vector<uint8_t> Mixed;
  for (int Span = 0; Span < 64; ++Span) {
    size_t N = 100 + static_cast<size_t>(Rng() % 4000);
    if (Span & 1)
      for (size_t I = 0; I < N; ++I)
        Mixed.push_back(static_cast<uint8_t>(Rng()));
    else
      Mixed.insert(Mixed.end(), N, static_cast<uint8_t>(Span));
  }
  RoundTrip(Mixed, "mixed");
}

TEST(LzCodec, RejectsMalformedStreams) {
  std::vector<uint8_t> In(5000);
  for (size_t I = 0; I < In.size(); ++I)
    In[I] = static_cast<uint8_t>(I * 31 % 251);
  std::vector<uint8_t> Comp = lz::compress(In.data(), In.size());
  std::vector<uint8_t> Out(In.size());

  // Truncated source: the decoder must consume exactly SrcN.
  EXPECT_THROW(
      lz::decompress(Comp.data(), Comp.size() - 1, Out.data(), Out.size()),
      SerializationError);
  // Announced destination off by one in either direction.
  EXPECT_THROW(
      lz::decompress(Comp.data(), Comp.size(), Out.data(), Out.size() - 1),
      SerializationError);
  std::vector<uint8_t> Bigger(In.size() + 1);
  EXPECT_THROW(lz::decompress(Comp.data(), Comp.size(), Bigger.data(),
                              Bigger.size()),
               SerializationError);
  // A hand-built sequence whose match offset points before the start of
  // the output: token = no literals + minimum match, offset 0xFFFF.
  const uint8_t BadOffset[] = {0x00, 0xFF, 0xFF};
  uint8_t Small[4];
  EXPECT_THROW(lz::decompress(BadOffset, sizeof(BadOffset), Small, 4),
               SerializationError);
  // A zero match offset (self-overlap before any byte exists).
  const uint8_t ZeroOffset[] = {0x00, 0x00, 0x00};
  EXPECT_THROW(lz::decompress(ZeroOffset, sizeof(ZeroOffset), Small, 4),
               SerializationError);
  // Empty source cannot produce a non-empty destination.
  EXPECT_THROW(lz::decompress(Comp.data(), 0, Out.data(), Out.size()),
               SerializationError);
}

//===----------------------------------------------------------------------===//
// Format: streaming, save/load, the index
//===----------------------------------------------------------------------===//

namespace {

/// Streams one recording of (\p Benchmark, \p S, \p Seed) straight to
/// \p Path with streamTo/finishStream -- the recording never resident.
void streamRecordingToFile(const std::string &Benchmark, Scale S,
                           uint64_t Seed, const std::string &Path,
                           uint64_t BlockBytes = 0) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  {
    TraceFileWriter FW(F);
    auto W = createWorkload(Benchmark);
    Program P;
    W->build(P);
    EventTrace Trace;
    Trace.streamTo(FW, BlockBytes);
    EXPECT_TRUE(Trace.streaming());
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Trace, Arena);
    RT.addObserver(&Recorder);
    W->run(RT, S, Seed);
    EXPECT_TRUE(Trace.finishStream());
    EXPECT_FALSE(Trace.streaming());
  }
  ASSERT_EQ(std::fclose(F), 0);
}

} // namespace

TEST(TraceFileFormat, StreamedFileMatchesSaveByteForByte) {
  // The block cut rule is one deterministic function of the record bytes,
  // applied identically by the streaming flush and by save()'s scan -- so
  // the two paths must agree on every byte, at the default block size and
  // at a tiny one that forces many cuts.
  EventTrace InRam = recordTrace("health", Scale::Test, 3);
  for (uint64_t BlockBytes : {uint64_t(0), uint64_t(4096)}) {
    SCOPED_TRACE("block bytes " + std::to_string(BlockBytes));
    TempFile File;
    streamRecordingToFile("health", Scale::Test, 3, File.path(), BlockBytes);
    EXPECT_EQ(readFile(File.path()), saveBytes(InRam, BlockBytes));
  }
}

TEST(TraceFileFormat, SaveLoadRoundTripsAcrossBlockCounts) {
  EventTrace Original = recordTrace("ft", Scale::Test, 1);
  // 512-byte blocks force hundreds of cuts; the default typically one.
  for (uint64_t BlockBytes : {uint64_t(512), uint64_t(0)}) {
    SCOPED_TRACE("block bytes " + std::to_string(BlockBytes));
    std::vector<uint8_t> Saved = saveBytes(Original, BlockBytes);
    BinaryReader R(Saved.data(), Saved.size());
    EventTrace Loaded = EventTrace::load(R);
    EXPECT_EQ(Loaded.numEvents(), Original.numEvents());
    EXPECT_EQ(Loaded.numObjects(), Original.numObjects());
    EXPECT_EQ(Loaded.byteSize(), Original.byteSize());
    EXPECT_EQ(Loaded.counts().Allocs, Original.counts().Allocs);
    // Re-saving reproduces the stored bytes exactly (same block rule).
    EXPECT_EQ(saveBytes(Loaded, BlockBytes), Saved);
  }
}

TEST(TraceFileFormat, IndexDescribesExactlyTheBlocks) {
  EventTrace Trace = recordTrace("ft", Scale::Test, 2);
  std::vector<uint8_t> Saved = saveBytes(Trace, /*BlockBytes=*/1024);
  TraceIndex Idx = parseTraceIndex(Saved.data(), Saved.size());

  ASSERT_GT(Idx.Blocks.size(), 1u);
  EXPECT_EQ(Idx.Counts.total(), Trace.numEvents());
  EXPECT_EQ(Idx.Objects, Trace.numObjects());
  EXPECT_EQ(Idx.TotalRawBytes, Trace.byteSize());

  uint64_t Events = 0, Raw = 0, Comp = 0;
  for (size_t B = 0; B < Idx.Blocks.size(); ++B) {
    const TraceBlockInfo &Blk = Idx.Blocks[B];
    SCOPED_TRACE("block " + std::to_string(B));
    // The derived fields are running sums of the predecessors.
    EXPECT_EQ(Blk.FirstEvent, Events);
    EXPECT_EQ(Blk.RawOffset, Raw);
    EXPECT_EQ(Blk.FileOffset, Comp);
    EXPECT_GT(Blk.Events, 0u);
    // Every block but the last reached the cut threshold.
    if (B + 1 < Idx.Blocks.size())
      EXPECT_GE(Blk.RawBytes, 1024u);
    Events += Blk.Events;
    Raw += Blk.RawBytes;
    Comp += Blk.CompBytes;
  }
  EXPECT_EQ(Events, Trace.numEvents());
  EXPECT_EQ(Raw, Trace.byteSize());
  // Payloads fit strictly inside framing + footer.
  EXPECT_LT(TraceHeaderBytes + Comp + TraceTrailerBytes, Saved.size());
  // The footer is exactly the documented fields, byte for byte: nothing
  // beyond the totals and the per-block method/sizes/events/checksum.
  EXPECT_EQ(footerOf(Saved), encodeFooter(Idx));
}

TEST(TraceFileFormat, OpenRejectsEveryCorruption) {
  EventTrace Trace = recordTrace("ft", Scale::Test, 4);
  std::vector<uint8_t> Saved = saveBytes(Trace, /*BlockBytes=*/4096);
  ASSERT_GT(Saved.size(), 64u);

  TempFile File;
  writeFile(File.path(), Saved);
  EXPECT_NO_THROW(MappedTrace::open(File.path()));

  auto ExpectRejected = [&](std::vector<uint8_t> Bytes, const char *What) {
    SCOPED_TRACE(What);
    TempFile Bad;
    writeFile(Bad.path(), Bytes);
    EXPECT_THROW(MappedTrace::open(Bad.path()), SerializationError);
  };

  std::vector<uint8_t> Mut = Saved;
  Mut[0] ^= 0xFF; // Header magic.
  ExpectRejected(Mut, "bad magic");

  Mut = Saved;
  Mut[4] += 1; // Version.
  ExpectRejected(Mut, "unknown version");

  Mut = Saved;
  Mut[4] = 2; // The previous format, whose footer carried per-block seeds.
  ExpectRejected(Mut, "version 2 image");

  Mut = Saved;
  Mut[TraceHeaderBytes + Mut.size() / 3] ^= 0x01; // A payload byte.
  ExpectRejected(Mut, "block bit flip");

  Mut = Saved;
  Mut[Mut.size() - TraceTrailerBytes - 2] ^= 0x10; // A footer byte.
  ExpectRejected(Mut, "footer bit flip");

  Mut.assign(Saved.begin(), Saved.begin() + Saved.size() / 2);
  ExpectRejected(Mut, "truncated");

  ExpectRejected({1, 2, 3}, "garbage");

  // Checksum-valid footers whose index disagrees with itself: the
  // structural checks, not the checksum, must reject these.
  TraceIndex Idx = parseTraceIndex(Saved.data(), Saved.size());
  EXPECT_EQ(withFooter(Saved, encodeFooter(Idx)), Saved);
  TraceIndex Bad = Idx;
  Bad.Blocks.front().Events += 1;
  ExpectRejected(withFooter(Saved, encodeFooter(Bad)),
                 "resealed footer: block events exceed the totals");
  Bad = Idx;
  Bad.Objects += 1;
  ExpectRejected(withFooter(Saved, encodeFooter(Bad)),
                 "resealed footer: object count mismatch");
  Bad = Idx;
  Bad.Blocks.front().Method = 2;
  ExpectRejected(withFooter(Saved, encodeFooter(Bad)),
                 "resealed footer: unknown compression method");

  // Missing file: an I/O error, not a format error.
  EXPECT_THROW(MappedTrace::open("/nonexistent/trace"), std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Mapped decode and replay equivalence
//===----------------------------------------------------------------------===//

TEST(MappedTraceDecode, CursorMatchesInRamCursorAcrossBlockBoundaries) {
  EventTrace Trace = recordTrace("health", Scale::Test, 6);
  TempFile File;
  writeFile(File.path(), saveBytes(Trace, /*BlockBytes=*/2048));
  MappedTrace Mapped = MappedTrace::open(File.path());
  ASSERT_GT(Mapped.numBlocks(), 2u);
  EXPECT_EQ(Mapped.numEvents(), Trace.numEvents());
  EXPECT_EQ(Mapped.numObjects(), Trace.numObjects());
  EXPECT_EQ(Mapped.rawBytes(), Trace.byteSize());

  // Chunk sizes chosen to land fills on, before, and after block cuts.
  for (size_t ChunkSize : {1u, 13u, 4096u}) {
    SCOPED_TRACE("chunk " + std::to_string(ChunkSize));
    EventTrace::Cursor InRam = Trace.cursor();
    MappedTrace::Cursor OnDisk = Mapped.cursor();
    std::vector<TraceEvent> A(ChunkSize), B(ChunkSize);
    uint64_t Total = 0;
    for (;;) {
      size_t NB = OnDisk.fill(B.data(), ChunkSize);
      size_t Want = NB;
      size_t NA = 0;
      // The in-RAM cursor sees no block seams; match its fill sizes.
      while (NA < Want) {
        size_t Got = InRam.fill(A.data() + NA, Want - NA);
        if (!Got)
          break;
        NA += Got;
      }
      ASSERT_EQ(NA, NB);
      if (!NB)
        break;
      for (size_t I = 0; I < NB; ++I) {
        ASSERT_EQ(A[I].Op, B[I].Op) << "record " << Total + I;
        switch (A[I].Op) {
        case TraceOp::Return:
          break;
        case TraceOp::Call:
        case TraceOp::Free:
        case TraceOp::Compute:
          EXPECT_EQ(A[I].A, B[I].A);
          break;
        case TraceOp::Alloc:
        case TraceOp::LoadBase:
        case TraceOp::StoreBase:
        case TraceOp::LoadRaw:
        case TraceOp::StoreRaw:
          EXPECT_EQ(A[I].A, B[I].A);
          EXPECT_EQ(A[I].B, B[I].B);
          break;
        case TraceOp::Load:
        case TraceOp::Store:
        case TraceOp::Realloc:
          EXPECT_EQ(A[I].A, B[I].A);
          EXPECT_EQ(A[I].B, B[I].B);
          EXPECT_EQ(A[I].C, B[I].C);
          break;
        }
      }
      Total += NB;
    }
    EXPECT_TRUE(InRam.atEnd());
    EXPECT_TRUE(OnDisk.atEnd());
    EXPECT_EQ(Total, Trace.numEvents());
  }
}

TEST(MappedTraceReplay, MatchesTheInRamOracle) {
  // The raw Runtime level of "mapped = in-RAM": same trace, one replay
  // through the buffer and one through the file, every counter equal.
  auto W = createWorkload("health");
  Program P;
  W->build(P);
  EventTrace Trace = recordTrace("health", Scale::Test, 5);
  TempFile File;
  writeFile(File.path(), saveBytes(Trace, /*BlockBytes=*/8192));
  MappedTrace Mapped = MappedTrace::open(File.path());
  ASSERT_GT(Mapped.numBlocks(), 2u);

  auto Measure = [&](auto Replay) {
    MemoryHierarchy Memory;
    BoundaryTagAllocator Alloc;
    Runtime RT(P, Alloc);
    RT.setMemory(&Memory);
    Replay(RT);
    return std::make_tuple(RT.timing().totalCycles(), RT.stats().Loads,
                           RT.stats().Stores, RT.stats().Allocs,
                           RT.stats().Frees, Memory.counters().L1Misses,
                           Memory.counters().TlbMisses,
                           Memory.counters().Accesses);
  };

  auto Oracle = Measure([&](Runtime &RT) { RT.replay(Trace); });
  EXPECT_EQ(Measure([&](Runtime &RT) { RT.replay(Mapped); }), Oracle);
}

//===----------------------------------------------------------------------===//
// TraceMode: the Evaluation and plan levels
//===----------------------------------------------------------------------===//

TEST(TraceModeNames, RoundTripAndRejectUnknown) {
  for (TraceMode M : {TraceMode::Auto, TraceMode::Memory, TraceMode::Mapped}) {
    std::optional<TraceMode> Parsed = parseTraceMode(traceModeName(M));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, M);
  }
  EXPECT_FALSE(parseTraceMode("").has_value());
  EXPECT_FALSE(parseTraceMode("disk").has_value());
  EXPECT_FALSE(parseTraceMode("Mapped").has_value());
}

TEST(TraceModeEval, MappedMeasurementsMatchTheMemoryOracle) {
  // Two Evaluations over the same setup, one per mode: every allocator
  // kind must measure bit-identically whether the trace is replayed from
  // RAM or streamed off disk.
  Evaluation Memory(paperSetup("ft"));
  Evaluation Mapped(paperSetup("ft"));
  Mapped.setTraceMode(TraceMode::Mapped);
  EXPECT_EQ(Mapped.traceMode(), TraceMode::Mapped);
  for (AllocatorKind Kind : AllKinds) {
    RunMetrics A = Memory.measure(Kind, Scale::Test, 7);
    RunMetrics B = Mapped.measure(Kind, Scale::Test, 7);
    expectSameMetrics(A, B, std::string("kind ") + allocatorKindName(Kind));
  }
  // The mapped Evaluation held no in-RAM copy of the measurement trace.
  EXPECT_TRUE(Mapped.hasMappedTrace(Scale::Test, 7));
}

TEST(TraceModeEval, ParallelTrialsMatchSerialUnderMappedReplay) {
  Evaluation Memory(paperSetup("health"));
  Evaluation Mapped(paperSetup("health"));
  Mapped.setTraceMode(TraceMode::Mapped);
  auto Oracle = Memory.measureTrials(AllocatorKind::Jemalloc, Scale::Test, 4,
                                     100, /*Jobs=*/1);
  for (int Jobs : {1, 4}) {
    auto Trials = Mapped.measureTrials(AllocatorKind::Jemalloc, Scale::Test,
                                       4, 100, Jobs);
    ASSERT_EQ(Trials.size(), Oracle.size());
    for (size_t T = 0; T < Trials.size(); ++T)
      expectSameMetrics(Oracle[T], Trials[T],
                        "jobs " + std::to_string(Jobs) + " trial " +
                            std::to_string(T));
  }
}

TEST(TraceModeEval, RecordTraceFileWritesAValidImage) {
  Evaluation Eval(paperSetup("ft"));
  TempFile File;
  Eval.recordTraceFile(Scale::Test, 8, File.path());
  MappedTrace Mapped = MappedTrace::open(File.path());
  // The streamed file is byte-identical to saving the in-RAM recording.
  EXPECT_EQ(readFile(File.path()), saveBytes(Eval.trace(Scale::Test, 8)));
  EXPECT_EQ(Mapped.numEvents(), Eval.trace(Scale::Test, 8).numEvents());
}

namespace {

/// One-benchmark spec over every kind, small and deterministic.
ExperimentSpec planSpec() {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo,
                AllocatorKind::Hds};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
}

void expectSameCells(const ResultSet &A, const ResultSet &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t C = 0; C < A.size(); ++C) {
    ASSERT_EQ(A.cells()[C].Runs.size(), B.cells()[C].Runs.size());
    for (size_t T = 0; T < A.cells()[C].Runs.size(); ++T)
      expectSameMetrics(A.cells()[C].Runs[T], B.cells()[C].Runs[T],
                        "cell " + std::to_string(C) + " trial " +
                            std::to_string(T));
  }
}

} // namespace

TEST(TraceModePlans, EveryModeMatchesTheMemoryPlan) {
  ExperimentPlan Oracle = buildPlan({planSpec()});
  ResultSet Memory =
      runPlan(Oracle, /*Jobs=*/1, ReplayMode::Auto, TraceMode::Memory);

  for (TraceMode Traces : {TraceMode::Mapped, TraceMode::Auto}) {
    for (int Jobs : {1, 4}) {
      SCOPED_TRACE(std::string(traceModeName(Traces)) + "/jobs " +
                   std::to_string(Jobs));
      ExperimentPlan Plan = buildPlan({planSpec()});
      expectSameCells(Memory,
                      runPlan(Plan, Jobs, ReplayMode::Auto, Traces));
    }
  }
}
