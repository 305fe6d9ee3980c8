//===- tests/store_test.cpp - Content-addressed artifact store ---------------===//
//
// The store contract: entries are addressed by a stable content hash of
// their inputs (any key component change re-keys; a schema bump
// invalidates everything), writes publish atomically, reads validate a
// checksum so corruption reads as "absent", and a warm plan built against
// a populated store schedules zero record/materialise tasks while staying
// bit-identical to the cold run that populated it.
//
//===----------------------------------------------------------------------===//

#include "store/ArtifactStore.h"

#include "eval/Experiment.h"
#include "group/Grouping.h"
#include "hds/HdsPipeline.h"
#include "identify/Identify.h"
#include "support/BinaryIO.h"
#include "trace/Context.h"
#include "trace/EventTrace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include <dirent.h>
#include <unistd.h>

using namespace halo;

namespace {

/// A store in a fresh private temp directory, removed on destruction.
class TempStore {
public:
  TempStore() {
    char Template[] = "/tmp/halo_store_test.XXXXXX";
    const char *Dir = mkdtemp(Template);
    EXPECT_NE(Dir, nullptr);
    Path = Dir;
    Store.emplace(Path);
  }

  ~TempStore() {
    if (DIR *D = opendir(Path.c_str())) {
      while (struct dirent *E = readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    rmdir(Path.c_str());
  }

  ArtifactStore &operator*() { return *Store; }
  ArtifactStore *operator->() { return &*Store; }
  const std::string &path() const { return Path; }

private:
  std::string Path;
  std::optional<ArtifactStore> Store;
};

/// The store file backing \p Key, via the public listing (the file-name
/// scheme is an implementation detail the tests don't hard-code).
std::string entryFile(ArtifactStore &Store, const StoreKey &Key) {
  for (const ArtifactStore::Entry &E : Store.entries())
    if (E.Hash == Key.Hash)
      return Store.dir() + "/" + E.File;
  ADD_FAILURE() << "no entry for " << Key.Label;
  return "";
}

void expectSameRuns(const std::vector<RunMetrics> &A,
                    const std::vector<RunMetrics> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t T = 0; T < A.size(); ++T) {
    SCOPED_TRACE("trial " + std::to_string(T));
    EXPECT_EQ(A[T].Cycles, B[T].Cycles);
    EXPECT_DOUBLE_EQ(A[T].Seconds, B[T].Seconds);
    EXPECT_EQ(A[T].Mem.L1Misses, B[T].Mem.L1Misses);
    EXPECT_EQ(A[T].Mem.TlbMisses, B[T].Mem.TlbMisses);
    EXPECT_EQ(A[T].GroupedAllocs, B[T].GroupedAllocs);
  }
}

/// One-benchmark HALO+HDS spec at test scale: small enough for store
/// round-trip tests, rich enough to exercise every artifact type.
ExperimentSpec smallSpec() {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo,
                AllocatorKind::Hds};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// Raw put/get
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreRaw, PutGetRoundTripsPayloads) {
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  EXPECT_FALSE(Store->contains(Key));
  EXPECT_FALSE(Store->get(Key).has_value());

  std::vector<uint8_t> Payload = {1, 2, 3, 250, 0, 42};
  EXPECT_TRUE(Store->put(Key, Payload));
  EXPECT_TRUE(Store->contains(Key));
  ASSERT_TRUE(Store->get(Key).has_value());
  EXPECT_EQ(*Store->get(Key), Payload);

  // A different key misses even with an entry present.
  EXPECT_FALSE(Store->contains(traceStoreKey("ft", Scale::Test, 2)));
}

TEST(ArtifactStoreRaw, EntriesDescribeWhatLsShows) {
  TempStore Store;
  StoreKey Key = traceStoreKey("health", Scale::Ref, 100);
  ASSERT_TRUE(Store->put(Key, std::vector<uint8_t>(17, 0xAB)));
  std::vector<ArtifactStore::Entry> Entries = Store->entries();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Hash, Key.Hash);
  EXPECT_EQ(Entries[0].Type, ArtifactType::Trace);
  EXPECT_EQ(Entries[0].Label, "trace/health/ref/s100");
  EXPECT_EQ(Entries[0].PayloadSize, 17u);
  EXPECT_TRUE(Entries[0].Valid);
  EXPECT_TRUE(Entries[0].Problem.empty());
}

TEST(ArtifactStoreRaw, RejectsUnusableDirectories) {
  EXPECT_THROW(ArtifactStore("/dev/null/not-a-dir"), std::runtime_error);
  // A plain file where the directory should be is just as unusable.
  char Template[] = "/tmp/halo_store_file.XXXXXX";
  int Fd = mkstemp(Template);
  ASSERT_GE(Fd, 0);
  close(Fd);
  EXPECT_THROW(ArtifactStore(std::string(Template)), std::runtime_error);
  unlink(Template);
}

//===----------------------------------------------------------------------===//
// Key stability
//===----------------------------------------------------------------------===//

TEST(StoreKeys, EveryTraceKeyComponentReKeys) {
  std::set<uint64_t> Hashes;
  Hashes.insert(traceStoreKey("ft", Scale::Test, 1).Hash);
  Hashes.insert(traceStoreKey("health", Scale::Test, 1).Hash); // benchmark
  Hashes.insert(traceStoreKey("ft", Scale::Ref, 1).Hash);      // scale
  Hashes.insert(traceStoreKey("ft", Scale::Test, 2).Hash);     // seed
  Hashes.insert(
      traceStoreKey("ft", Scale::Test, 1, StoreSchemaVersion + 1).Hash);
  EXPECT_EQ(Hashes.size(), 5u);
  // Same inputs, same hash: the address is a pure function of the key.
  EXPECT_EQ(traceStoreKey("ft", Scale::Test, 1).Hash,
            traceStoreKey("ft", Scale::Test, 1).Hash);
}

TEST(StoreKeys, EveryPipelineKnobReKeys) {
  const HaloParameters Base;
  std::set<uint64_t> Hashes;
  auto Add = [&](const HaloParameters &P) {
    Hashes.insert(haloStoreKey("ft", Scale::Test, 1, P).Hash);
  };
  Add(Base);
  HaloParameters P = Base;
  P.Profile.AffinityDistance *= 2;
  Add(P);
  P = Base;
  P.Profile.MaxObjectSize *= 2;
  Add(P);
  P = Base;
  P.Grouping.MaxGroups = 4;
  Add(P);
  P = Base;
  P.Grouping.MergeTolerance += 0.01;
  Add(P);
  P = Base;
  P.Allocator.ChunkSize /= 2;
  Add(P);
  P = Base;
  P.Allocator.PurgeEmptyChunks = !P.Allocator.PurgeEmptyChunks;
  Add(P);
  EXPECT_EQ(Hashes.size(), 7u);

  const HdsParameters HdsBase;
  std::set<uint64_t> HdsHashes;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, HdsBase).Hash);
  HdsParameters H = HdsBase;
  H.Streams.MaxLength += 1;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, H).Hash);
  H = HdsBase;
  H.CoAllocation.CacheLineSize *= 2;
  HdsHashes.insert(hdsStoreKey("ft", Scale::Test, 1, H).Hash);
  EXPECT_EQ(HdsHashes.size(), 3u);
}

TEST(StoreKeys, SchemaBumpInvalidatesExistingEntries) {
  TempStore Store;
  StoreKey Old = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(Store->put(Old, {1, 2, 3}));
  // The next schema's key for the same coordinate addresses nothing: old
  // entries are never read under new assumptions, only gc'd eventually.
  StoreKey Bumped =
      traceStoreKey("ft", Scale::Test, 1, StoreSchemaVersion + 1);
  EXPECT_NE(Bumped.Hash, Old.Hash);
  EXPECT_FALSE(Store->contains(Bumped));
  EXPECT_TRUE(Store->contains(Old));
}

//===----------------------------------------------------------------------===//
// Typed round-trips
//===----------------------------------------------------------------------===//

TEST(StoreRoundTrip, TraceLoadsBitIdenticalAndResavesByteIdentical) {
  Evaluation Eval(paperSetup("ft"));
  const EventTrace &Original = Eval.trace(Scale::Test, 1);

  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(putTrace(*Store, Key, Original));
  std::optional<EventTrace> Loaded = getTrace(*Store, Key);
  ASSERT_TRUE(Loaded.has_value());

  // The loaded trace re-serializes to exactly the stored bytes: nothing
  // about it is an approximation of the original.
  BinaryWriter Resaved;
  Loaded->save(Resaved);
  EXPECT_EQ(Resaved.buffer(), *Store->get(Key));

  // And it drives a bit-identical measurement through a fresh Evaluation.
  Evaluation Warm(paperSetup("ft"));
  Warm.addTrace(Scale::Test, 1, std::move(*Loaded));
  RunMetrics Cold = Eval.measure(AllocatorKind::Jemalloc, Scale::Test, 1);
  RunMetrics WarmRun = Warm.measure(AllocatorKind::Jemalloc, Scale::Test, 1);
  EXPECT_EQ(Cold.Cycles, WarmRun.Cycles);
  EXPECT_EQ(Cold.Mem.L1Misses, WarmRun.Mem.L1Misses);
  EXPECT_EQ(Cold.Mem.TlbMisses, WarmRun.Mem.TlbMisses);
}

TEST(StoreRoundTrip, PipelineArtifactsDriveBitIdenticalMeasurements) {
  BenchmarkSetup Setup = paperSetup("ft");
  Evaluation Cold(Setup);
  const HaloArtifacts &Halo = Cold.haloArtifacts();
  const HdsArtifacts &Hds = Cold.hdsArtifacts();

  TempStore Store;
  StoreKey HaloKey =
      haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  ASSERT_TRUE(putHaloArtifacts(*Store, HaloKey, Halo));
  ASSERT_TRUE(putHdsArtifacts(*Store, HdsKey, Hds));

  Evaluation Warm(Setup);
  std::optional<HaloArtifacts> LoadedHalo =
      getHaloArtifacts(*Store, HaloKey, Warm.program());
  std::optional<HdsArtifacts> LoadedHds = getHdsArtifacts(*Store, HdsKey);
  ASSERT_TRUE(LoadedHalo.has_value());
  ASSERT_TRUE(LoadedHds.has_value());
  Warm.setHaloArtifacts(std::move(*LoadedHalo));
  Warm.setHdsArtifacts(std::move(*LoadedHds));
  EXPECT_TRUE(Warm.hasHaloArtifacts());
  EXPECT_TRUE(Warm.hasHdsArtifacts());

  // The warm Evaluation never profiles: its measurements come entirely
  // from the loaded bundles, and match the cold ones bit for bit.
  for (AllocatorKind Kind : {AllocatorKind::Halo, AllocatorKind::Hds}) {
    SCOPED_TRACE(allocatorKindName(Kind));
    RunMetrics A = Cold.measure(Kind, Scale::Test, 5);
    RunMetrics B = Warm.measure(Kind, Scale::Test, 5);
    EXPECT_EQ(A.Cycles, B.Cycles);
    EXPECT_EQ(A.Mem.L1Misses, B.Mem.L1Misses);
    EXPECT_EQ(A.GroupedAllocs, B.GroupedAllocs);
    EXPECT_EQ(A.ForwardedAllocs, B.ForwardedAllocs);
  }
}

TEST(StoreRoundTrip, TypeMismatchReadsAsAbsent) {
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  ASSERT_TRUE(putTrace(*Store, Key, Eval.trace(Scale::Test, 1)));
  // The same hash asked for as a different type must miss, not decode.
  StoreKey Wrong = Key;
  Wrong.Type = ArtifactType::Halo;
  EXPECT_FALSE(Store->get(Wrong).has_value());
  EXPECT_FALSE(getHaloArtifacts(*Store, Wrong, Eval.program()).has_value());
}

//===----------------------------------------------------------------------===//
// Corruption
//===----------------------------------------------------------------------===//

namespace {

/// Flips one payload byte near the end of \p File in place.
void flipByte(const std::string &File) {
  FILE *F = std::fopen(File.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, -1, SEEK_END), 0);
  int C = std::fgetc(F);
  ASSERT_NE(C, EOF);
  ASSERT_EQ(std::fseek(F, -1, SEEK_END), 0);
  std::fputc(C ^ 0x40, F);
  std::fclose(F);
}

/// Truncates \p File to half its size.
void truncateFile(const std::string &File) {
  FILE *F = std::fopen(File.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, 0, SEEK_END), 0);
  long Size = std::ftell(F);
  std::fclose(F);
  ASSERT_GT(Size, 1);
  ASSERT_EQ(truncate(File.c_str(), Size / 2), 0);
}

} // namespace

TEST(StoreCorruption, BitFlipsAndTruncationReadAsAbsent) {
  TempStore Store;
  StoreKey Flipped = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Truncated = traceStoreKey("ft", Scale::Test, 2);
  ASSERT_TRUE(Store->put(Flipped, std::vector<uint8_t>(64, 7)));
  ASSERT_TRUE(Store->put(Truncated, std::vector<uint8_t>(64, 9)));
  flipByte(entryFile(*Store, Flipped));
  truncateFile(entryFile(*Store, Truncated));

  // Reads treat both as missing; the listing names the reason.
  EXPECT_FALSE(Store->get(Flipped).has_value());
  EXPECT_FALSE(Store->contains(Flipped));
  EXPECT_FALSE(Store->get(Truncated).has_value());
  std::vector<ArtifactStore::Entry> Entries = Store->entries();
  ASSERT_EQ(Entries.size(), 2u);
  for (const ArtifactStore::Entry &E : Entries) {
    EXPECT_FALSE(E.Valid);
    EXPECT_FALSE(E.Problem.empty());
  }

  // gc removes exactly the invalid entries.
  EXPECT_EQ(Store->gc(), 2u);
  EXPECT_TRUE(Store->entries().empty());
}

TEST(StoreCorruption, GcKeepsValidEntries) {
  TempStore Store;
  StoreKey Good = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Bad = traceStoreKey("ft", Scale::Test, 2);
  ASSERT_TRUE(Store->put(Good, std::vector<uint8_t>(32, 1)));
  ASSERT_TRUE(Store->put(Bad, std::vector<uint8_t>(32, 2)));
  flipByte(entryFile(*Store, Bad));
  EXPECT_EQ(Store->gc(), 1u);
  EXPECT_TRUE(Store->contains(Good));
  ASSERT_EQ(Store->entries().size(), 1u);
  EXPECT_EQ(Store->entries()[0].Hash, Good.Hash);
}

namespace {

/// The 9-byte varint 2^60 - 1: a count no real payload can back.
const std::vector<uint8_t> InflatedCount = {0xff, 0xff, 0xff, 0xff, 0xff,
                                            0xff, 0xff, 0xff, 0x0f};

/// \p Prefix followed by InflatedCount.
std::vector<uint8_t> inflated(std::vector<uint8_t> Prefix = {}) {
  Prefix.insert(Prefix.end(), InflatedCount.begin(), InflatedCount.end());
  return Prefix;
}

/// \p Payload with the varint at \p Offset replaced by InflatedCount.
std::vector<uint8_t> inflateCountAt(const std::vector<uint8_t> &Payload,
                                    size_t Offset) {
  BinaryReader R(Payload.data() + Offset, Payload.size() - Offset);
  R.varint();
  auto Rest = Payload.end() - static_cast<long>(R.remaining());
  std::vector<uint8_t> Out(Payload.begin(),
                           Payload.begin() + static_cast<long>(Offset));
  Out.insert(Out.end(), InflatedCount.begin(), InflatedCount.end());
  Out.insert(Out.end(), Rest, Payload.end());
  return Out;
}

/// Runs \p Load over \p Bytes; the decoder must raise SerializationError.
template <typename LoadFn>
void expectTypedError(const std::vector<uint8_t> &Bytes, LoadFn Load,
                      const char *What) {
  SCOPED_TRACE(What);
  BinaryReader R(Bytes);
  EXPECT_THROW(Load(R), SerializationError);
}

} // namespace

TEST(StoreCorruption, InflatedCountsRaiseTheTypedError) {
  // A count the remaining bytes cannot hold must fail as a decode error,
  // never as std::length_error or std::bad_alloc from a reserve().
  expectTypedError(inflated(), loadGroups, "groups");
  expectTypedError(inflated(), loadIdentification, "identification");
  expectTypedError(inflated(), ContextTable::load, "contexts");
  // One context whose frame count is inflated.
  expectTypedError(inflated({1}), ContextTable::load, "context frames");
  // A valid HDS header (magic, version) ahead of the stream count.
  BinaryWriter Hds;
  saveHdsArtifacts(HdsArtifacts{}, Hds);
  std::vector<uint8_t> HdsHeader(Hds.buffer().begin(),
                                 Hds.buffer().begin() + 8);
  expectTypedError(inflated(HdsHeader), loadHdsArtifacts, "hds streams");
}

TEST(StoreCorruption, InflatedCountsInResealedEntriesReadAsAbsent) {
  // A checksum-valid entry whose payload carries an inflated count (a
  // forged or miswritten entry: put() re-seals whatever it is given) must
  // read as absent, exactly like a bit flip.
  Evaluation Eval(paperSetup("ft"));
  const BenchmarkSetup &Setup = Eval.setup();
  const HaloArtifacts &Halo = Eval.haloArtifacts();
  TempStore Store;

  // The HALO bundle's group count sits after its header, contexts, and
  // graph.
  BinaryWriter HaloBytes, Prefix;
  saveHaloArtifacts(Halo, HaloBytes);
  Prefix.u64(0); // Magic and version.
  Halo.Contexts.save(Prefix);
  Halo.Graph.save(Prefix);
  StoreKey HaloKey = haloStoreKey("ft", Setup.ProfileScale,
                                  Setup.ProfileSeed, Setup.Halo);
  ASSERT_TRUE(
      Store->put(HaloKey, inflateCountAt(HaloBytes.buffer(), Prefix.size())));
  EXPECT_TRUE(Store->contains(HaloKey)); // The checksum holds.
  EXPECT_FALSE(getHaloArtifacts(*Store, HaloKey, Eval.program()).has_value());

  // The HDS bundle's stream count follows its 8-byte header.
  BinaryWriter HdsBytes;
  saveHdsArtifacts(Eval.hdsArtifacts(), HdsBytes);
  StoreKey HdsKey =
      hdsStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
  ASSERT_TRUE(Store->put(HdsKey, inflateCountAt(HdsBytes.buffer(), 8)));
  EXPECT_TRUE(Store->contains(HdsKey));
  EXPECT_FALSE(getHdsArtifacts(*Store, HdsKey).has_value());
}

//===----------------------------------------------------------------------===//
// On-disk trace entries (putTraceFile / openMappedTrace)
//===----------------------------------------------------------------------===//

namespace {

/// Streams one recording of ("ft", Test, \p Seed) to \p Path.
void recordTraceTo(Evaluation &Eval, uint64_t Seed, const std::string &Path) {
  Eval.recordTraceFile(Scale::Test, Seed, Path);
}

} // namespace

TEST(StoreTraceFiles, PutTraceFileRoundTripsThroughMappedOpen) {
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  std::string Temp = Store.path() + "/tmp.recording";
  recordTraceTo(Eval, 1, Temp);

  ASSERT_TRUE(putTraceFile(*Store, Key, Temp));
  EXPECT_TRUE(Store->contains(Key));

  // The published payload is byte-identical to the recorded file, so the
  // streamed entry is interchangeable with putTrace of the same trace.
  std::optional<std::vector<uint8_t>> Payload = Store->get(Key);
  ASSERT_TRUE(Payload.has_value());
  BinaryWriter Saved;
  Eval.trace(Scale::Test, 1).save(Saved);
  EXPECT_EQ(*Payload, Saved.buffer());

  // Every read path agrees: mmap'd straight off the entry, decoded whole
  // via getTrace, and `trace info`'s entry-file form.
  std::optional<MappedTrace> Mapped = openMappedTrace(*Store, Key);
  ASSERT_TRUE(Mapped.has_value());
  EXPECT_EQ(Mapped->numEvents(), Eval.trace(Scale::Test, 1).numEvents());
  EXPECT_EQ(Mapped->numObjects(), Eval.trace(Scale::Test, 1).numObjects());
  std::optional<EventTrace> Loaded = getTrace(*Store, Key);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numEvents(), Mapped->numEvents());
  std::optional<MappedTrace> ByPath =
      openTraceEntryFile(entryFile(*Store, Key));
  ASSERT_TRUE(ByPath.has_value());
  EXPECT_EQ(ByPath->numEvents(), Mapped->numEvents());

  // Key discipline holds for the mapped reader too.
  EXPECT_FALSE(
      openMappedTrace(*Store, traceStoreKey("ft", Scale::Test, 2)).has_value());
  unlink(Temp.c_str());
}

TEST(StoreTraceFiles, HeaderOnlyListingStillReportsSizes) {
  // `store ls` must show per-entry payload sizes without paying a full
  // checksum pass -- oversized trace entries stay visible before gc
  // decisions -- while still catching the cheap structural lies.
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  std::string Temp = Store.path() + "/tmp.recording";
  recordTraceTo(Eval, 1, Temp);
  ASSERT_TRUE(putTraceFile(*Store, Key, Temp));
  unlink(Temp.c_str());

  std::vector<ArtifactStore::Entry> Checked = Store->entries();
  std::vector<ArtifactStore::Entry> Listed = Store->entries(/*Validate=*/false);
  ASSERT_EQ(Checked.size(), 1u);
  ASSERT_EQ(Listed.size(), 1u);
  EXPECT_EQ(Listed[0].PayloadSize, Checked[0].PayloadSize);
  EXPECT_EQ(Listed[0].Label, Checked[0].Label);
  EXPECT_TRUE(Listed[0].Valid);

  // A payload bit flip passes the header-only listing (by design) but
  // fails validation; truncation fails both (the extent check is cheap).
  flipByte(entryFile(*Store, Key));
  EXPECT_TRUE(Store->entries(/*Validate=*/false)[0].Valid);
  EXPECT_FALSE(Store->entries()[0].Valid);
  truncateFile(entryFile(*Store, Key));
  EXPECT_FALSE(Store->entries(/*Validate=*/false)[0].Valid);
}

TEST(StoreTraceFiles, CorruptTraceEntriesReadAsAbsent) {
  // The store discipline extends to the block format: a truncated,
  // bit-flipped, or schema-mismatched trace entry reads as absence
  // through every accessor, never as a decode error.
  Evaluation Eval(paperSetup("ft"));
  TempStore Store;
  StoreKey Flipped = traceStoreKey("ft", Scale::Test, 1);
  StoreKey Truncated = traceStoreKey("ft", Scale::Test, 2);
  StoreKey Mismatched = traceStoreKey("ft", Scale::Test, 3);
  for (const auto &P :
       {std::make_pair(Flipped, uint64_t(1)),
        std::make_pair(Truncated, uint64_t(2)),
        std::make_pair(Mismatched, uint64_t(3))}) {
    std::string Temp = Store.path() + "/tmp.recording";
    recordTraceTo(Eval, P.second, Temp);
    ASSERT_TRUE(putTraceFile(*Store, P.first, Temp));
    unlink(Temp.c_str());
  }

  flipByte(entryFile(*Store, Flipped));
  truncateFile(entryFile(*Store, Truncated));
  {
    // Flip one bit of the schema field (offset 4, after the u32 magic):
    // the entry claims a format this build does not speak.
    std::string File = entryFile(*Store, Mismatched);
    FILE *F = std::fopen(File.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, 4, SEEK_SET), 0);
    int C = std::fgetc(F);
    ASSERT_NE(C, EOF);
    ASSERT_EQ(std::fseek(F, 4, SEEK_SET), 0);
    std::fputc(C ^ 0x20, F);
    std::fclose(F);
  }

  for (const StoreKey &Key : {Flipped, Truncated, Mismatched}) {
    SCOPED_TRACE(Key.Label);
    EXPECT_FALSE(openMappedTrace(*Store, Key).has_value());
    EXPECT_FALSE(getTrace(*Store, Key).has_value());
    EXPECT_FALSE(Store->contains(Key));
  }
  // gc sweeps all three.
  EXPECT_EQ(Store->gc(), 3u);
  EXPECT_TRUE(Store->entries().empty());
}

TEST(StoreTraceFiles, MappedPlansColdWarmAndHealBitIdentically) {
  TempStore Store;

  // Cold mapped run: measurement traces stream into the store.
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(ColdPlan.numRecordings(), 2u);
  ResultSet Cold =
      runPlan(ColdPlan, /*Jobs=*/2, ReplayMode::Auto, TraceMode::Mapped);

  // No abandoned recorder temp files survive a clean cold run.
  for (const ArtifactStore::Entry &E : Store->entries())
    EXPECT_TRUE(E.Valid) << E.File << ": " << E.Problem;
  EXPECT_EQ(Store->gc(), 0u);

  // Warm mapped run: zero recordings scheduled, entries open mmap'd,
  // results bit-identical to cold and to the in-RAM oracle.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numRecordings(), 0u);
  ResultSet Warm =
      runPlan(WarmPlan, /*Jobs=*/2, ReplayMode::Auto, TraceMode::Mapped);
  ExperimentPlan OraclePlan = buildPlan({smallSpec()});
  ResultSet Oracle =
      runPlan(OraclePlan, /*Jobs=*/1, ReplayMode::Auto, TraceMode::Memory);
  ASSERT_EQ(Warm.size(), Cold.size());
  ASSERT_EQ(Oracle.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
    expectSameRuns(Cold.cells()[C].Runs, Oracle.cells()[C].Runs);
  }

  // Corrupt one trace entry *after* planning: the mapped open fails, the
  // run re-records streaming and re-publishes -- cold fallback, healed
  // store, identical results.
  ExperimentPlan HealPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(HealPlan.numRecordings(), 0u);
  StoreKey Lost = traceStoreKey("ft", Scale::Test, 100);
  flipByte(entryFile(*Store, Lost));
  ResultSet Healed =
      runPlan(HealPlan, /*Jobs=*/2, ReplayMode::Auto, TraceMode::Mapped);
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("healed cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Healed.cells()[C].Runs);
  }
  EXPECT_TRUE(Store->contains(Lost));
  EXPECT_EQ(Store->gc(), 0u);
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(StoreConcurrency, RacingWritersOfOneEntryAllSucceed) {
  TempStore Store;
  StoreKey Key = traceStoreKey("ft", Scale::Test, 1);
  // Identical payloads by construction, as in the real race: every writer
  // serialized the same deterministic recording.
  std::vector<uint8_t> Payload(4096);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 31);

  std::vector<std::thread> Writers;
  std::atomic<int> Failures{0};
  for (int T = 0; T < 8; ++T)
    Writers.emplace_back([&] {
      for (int Round = 0; Round < 8; ++Round)
        if (!Store->put(Key, Payload))
          ++Failures;
    });
  for (std::thread &W : Writers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  ASSERT_TRUE(Store->get(Key).has_value());
  EXPECT_EQ(*Store->get(Key), Payload);
  // No abandoned temp files: every write published or cleaned up.
  ASSERT_EQ(Store->entries().size(), 1u);
  EXPECT_EQ(Store->gc(), 0u);
}

//===----------------------------------------------------------------------===//
// Plans
//===----------------------------------------------------------------------===//

TEST(StorePlans, WarmPlanSchedulesNothingAndMatchesColdBitIdentically) {
  TempStore Store;

  // Cold: an empty store prunes nothing; the run populates it.
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(ColdPlan.store(), &*Store);
  EXPECT_EQ(ColdPlan.numStoredRecordings(), 0u);
  EXPECT_EQ(ColdPlan.numStoredArtifacts(), 0u);
  EXPECT_EQ(ColdPlan.numRecordings(), 2u);
  EXPECT_EQ(ColdPlan.numArtifactTasks(), 2u);
  EXPECT_EQ(ColdPlan.numProfileRecordings(), 1u);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/2);

  // Warm: every record/materialise stage is deleted from the DAG.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numRecordings(), 0u);
  EXPECT_EQ(WarmPlan.numArtifactTasks(), 0u);
  EXPECT_EQ(WarmPlan.numProfileRecordings(), 0u);
  EXPECT_EQ(WarmPlan.numStoredRecordings(), 2u);
  EXPECT_EQ(WarmPlan.numStoredArtifacts(), 2u);
  ResultSet Warm = runPlan(WarmPlan, /*Jobs=*/2);

  // And a storeless control proves warm == cold == no store at all.
  ExperimentPlan PlainPlan = buildPlan({smallSpec()});
  ResultSet Plain = runPlan(PlainPlan, /*Jobs=*/1);

  ASSERT_EQ(Warm.size(), Cold.size());
  ASSERT_EQ(Plain.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Warm.cells()[C].Runs);
    expectSameRuns(Cold.cells()[C].Runs, Plain.cells()[C].Runs);
  }
}

TEST(StorePlans, RunPlanHealsEntriesLostAfterPlanning) {
  TempStore Store;
  ExperimentPlan ColdPlan = buildPlan({smallSpec()}, {}, &*Store);
  ResultSet Cold = runPlan(ColdPlan, /*Jobs=*/1);

  // Plan warm, then corrupt one trace and one artifact bundle *after*
  // buildPlan consulted the store: the load tasks now miss and must fall
  // back to recording/profiling inline, bit-identically.
  ExperimentPlan WarmPlan = buildPlan({smallSpec()}, {}, &*Store);
  EXPECT_EQ(WarmPlan.numRecordings(), 0u);
  flipByte(entryFile(*Store, traceStoreKey("ft", Scale::Test, 100)));
  BenchmarkSetup Setup = paperSetup("ft");
  flipByte(entryFile(
      *Store, haloStoreKey("ft", Setup.ProfileScale, Setup.ProfileSeed,
                           Setup.Halo)));

  ResultSet Healed = runPlan(WarmPlan, /*Jobs=*/2);
  ASSERT_EQ(Healed.size(), Cold.size());
  for (size_t C = 0; C < Cold.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    expectSameRuns(Cold.cells()[C].Runs, Healed.cells()[C].Runs);
  }
  // The fallback re-published: the store is whole again.
  EXPECT_TRUE(Store->contains(traceStoreKey("ft", Scale::Test, 100)));
  EXPECT_TRUE(Store->contains(haloStoreKey(
      "ft", Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo)));
}
