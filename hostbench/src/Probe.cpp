//===- hostbench/src/Probe.cpp - Per-layer decomposition of a plan list ---===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
//
// The traced run's layer probe. A plan is a composition of public layer
// functions: trace recording (Evaluation::trace), the HALO pipeline
// (optimizeBinary, with buildGroups and identifyGroups re-run on its
// artifact graph), the HDS pipeline (optimizeBinaryHds), store publishes
// and loads (putTrace, putHaloArtifacts, getTrace, openMappedTrace, ...),
// and replays (Evaluation::measure, in RAM and mapped). The probe calls
// each one directly, one benchmark at a time on this thread, under a span
// named after the layer metric it feeds, and checks every intermediate
// result against what the plans produced.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "group/Grouping.h"
#include "identify/Identify.h"
#include "store/ArtifactStore.h"

#include <map>
#include <set>

#include <dirent.h>
#include <sys/stat.h>

using namespace halo;

namespace hostbench {

namespace {

struct ProbeCell {
  std::string Machine;
  AllocatorKind Kind;
  Scale S;
  uint64_t Seed;
};

struct BenchWork {
  std::set<std::pair<Scale, uint64_t>> Traces;
  std::vector<ProbeCell> Cells;
  std::set<std::string> Seen;
};

uint64_t dirBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      struct stat St;
      std::string Path = Dir + "/" + E->d_name;
      if (stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode))
        Bytes += static_cast<uint64_t>(St.st_size);
    }
    closedir(D);
  }
  return Bytes;
}

bool sameGroups(const std::vector<Group> &A, const std::vector<Group> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Members != B[I].Members || A[I].Weight != B[I].Weight ||
        A[I].Accesses != B[I].Accesses)
      return false;
  return true;
}

} // namespace

ProbeResult probeLayers(const std::vector<PlanShape> &Shapes,
                        const std::string &StoreDir, const CellRuns &Load,
                        Tally &T) {
  std::vector<std::string> Order;
  std::map<std::string, BenchWork> Work;
  const std::string DefaultMachine = defaultMachine().Name;
  for (const PlanShape &Shape : Shapes) {
    const PlanRequest &R = Shape.Req;
    std::vector<std::string> Machines = R.Machines;
    if (Machines.empty())
      Machines.push_back(DefaultMachine);
    for (const std::string &B : R.Benchmarks) {
      if (!Work.count(B))
        Order.push_back(B);
      BenchWork &W = Work[B];
      for (int Tr = 0; Tr < R.Trials; ++Tr) {
        uint64_t Seed = R.SeedBase + static_cast<uint64_t>(Tr);
        W.Traces.insert({R.S, Seed});
        for (const std::string &M : Machines)
          for (AllocatorKind K : R.Kinds)
            if (W.Seen.insert(cellKey(B, M, K, R.S, Seed)).second)
              W.Cells.push_back({M, K, R.S, Seed});
      }
    }
  }

  removeTree(StoreDir);
  ArtifactStore Store(StoreDir);
  ProbeResult Out;
  for (const std::string &B : Order) {
    const BenchWork &W = Work[B];
    const BenchmarkSetup Setup = paperSetup(B);
    Evaluation E(Setup);
    ScopedSpan PlanSpan("probe." + B, newPlanId());

    const EventTrace *Profile;
    {
      ScopedSpan S("trace.record");
      Profile = &E.trace(Setup.ProfileScale, Setup.ProfileSeed);
    }
    Out.TraceEvents += Profile->numEvents();
    Out.TraceBytes += Profile->byteSize();

    HaloArtifacts Art;
    {
      ScopedSpan S("core.optimize");
      Art = optimizeBinary(E.program(), *Profile, Setup.Halo, Setup.Machine);
    }
    Out.GraphNodes += Art.Graph.numNodes();
    Out.GraphEdges += Art.Graph.numEdges();
    std::vector<Group> Groups;
    {
      ScopedSpan S("group.build");
      Groups = buildGroups(Art.Graph, Setup.Halo.Grouping);
    }
    T.check(sameGroups(Groups, Art.Groups),
            B + ": buildGroups on the artifact graph reproduces its groups");
    Out.Groups += Groups.size();
    IdentificationResult Id;
    {
      ScopedSpan S("identify");
      Id = identifyGroups(Groups, Art.Contexts);
    }
    T.check(Id.Sites == Art.Identification.Sites,
            B + ": identifyGroups reproduces the pipeline's sites");
    HdsArtifacts Hds;
    {
      ScopedSpan S("hds.optimize");
      Hds = optimizeBinaryHds(E.program(), *Profile, Setup.Hds, Setup.Machine);
    }

    std::map<std::pair<Scale, uint64_t>, const EventTrace *> Traces;
    for (const auto &Key : W.Traces) {
      ScopedSpan S("trace.record");
      Traces[Key] = &E.trace(Key.first, Key.second);
    }
    for (const auto &[Key, Trace] : Traces) {
      Out.TraceEvents += Trace->numEvents();
      Out.TraceBytes += Trace->byteSize();
    }

    uint64_t BytesBefore = dirBytes(StoreDir);
    {
      ScopedSpan S("store.put_trace");
      bool Ok = putTrace(
          Store, traceStoreKey(B, Setup.ProfileScale, Setup.ProfileSeed),
          *Profile);
      for (const auto &[Key, Trace] : Traces)
        Ok &= putTrace(Store, traceStoreKey(B, Key.first, Key.second), *Trace);
      T.check(Ok, B + ": putTrace publishes every trace");
    }
    StoreKey HaloKey =
        haloStoreKey(B, Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
    StoreKey HdsKey =
        hdsStoreKey(B, Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
    {
      ScopedSpan S("store.put_artifacts");
      bool Ok = putHaloArtifacts(Store, HaloKey, Art) &&
                putHdsArtifacts(Store, HdsKey, Hds);
      T.check(Ok, B + ": artifacts publish");
    }
    Out.StoreBytes += dirBytes(StoreDir) - BytesBefore;

    {
      ScopedSpan S("store.get_trace");
      bool Ok = true;
      for (const auto &[Key, Trace] : Traces) {
        std::optional<EventTrace> Got =
            getTrace(Store, traceStoreKey(B, Key.first, Key.second));
        Ok &= Got && Got->numEvents() == Trace->numEvents();
      }
      T.check(Ok, B + ": getTrace loads every published trace");
    }
    std::map<std::pair<Scale, uint64_t>, MappedTrace> Mapped;
    {
      ScopedSpan S("store.open_mapped");
      bool Ok = true;
      for (const auto &[Key, Trace] : Traces) {
        std::optional<MappedTrace> M =
            openMappedTrace(Store, traceStoreKey(B, Key.first, Key.second));
        Ok &= M && M->numEvents() == Trace->numEvents();
        if (M)
          Mapped.emplace(Key, std::move(*M));
      }
      T.check(Ok, B + ": openMappedTrace opens every published trace");
    }
    std::optional<HaloArtifacts> LoadedHalo;
    std::optional<HdsArtifacts> LoadedHds;
    {
      ScopedSpan S("store.get_artifacts");
      LoadedHalo = getHaloArtifacts(Store, HaloKey, E.program());
      LoadedHds = getHdsArtifacts(Store, HdsKey);
    }
    T.check(LoadedHalo && LoadedHds, B + ": artifacts load");
    if (!LoadedHalo || !LoadedHds)
      continue;

    E.setHaloArtifacts(std::move(Art));
    E.setHdsArtifacts(std::move(Hds));
    std::map<std::string, std::pair<RunMetrics, double>> InRam;
    for (const ProbeCell &C : W.Cells) {
      const MachineConfig &M = *findMachine(C.Machine);
      std::string Key = cellKey(B, C.Machine, C.Kind, C.S, C.Seed);
      RunMetrics Got;
      double T0 = nowS();
      {
        ScopedSpan S(std::string("runtime.replay.") +
                     allocatorKindName(C.Kind));
        Got = E.measure(M, C.Kind, C.S, C.Seed);
      }
      InRam[Key] = {Got, nowS() - T0};
      Out.ReplayedEvents += Traces.at({C.S, C.Seed})->numEvents();
      auto It = Load.find(Key);
      T.check(It != Load.end() && sameMetrics(It->second, Got),
              "probe replay of " + Key + " matches the plan's cell");
    }

    // The same default-machine replays, mmap'd block by block from the
    // store entries, with the artifacts the store handed back.
    Evaluation Mapper(Setup);
    Mapper.setHaloArtifacts(std::move(*LoadedHalo));
    Mapper.setHdsArtifacts(std::move(*LoadedHds));
    for (auto &[Key, M] : Mapped)
      Mapper.addMappedTrace(Key.first, Key.second, std::move(M));
    Mapper.setTraceMode(TraceMode::Mapped);
    for (const ProbeCell &C : W.Cells) {
      if (C.Machine != DefaultMachine)
        continue;
      std::string Key = cellKey(B, C.Machine, C.Kind, C.S, C.Seed);
      RunMetrics Got;
      double T0 = nowS();
      {
        ScopedSpan S("runtime.replay_mapped");
        Got = Mapper.measure(defaultMachine(), C.Kind, C.S, C.Seed);
      }
      Out.MappedS += nowS() - T0;
      Out.InRamS += InRam.at(Key).second;
      T.check(sameMetrics(InRam.at(Key).first, Got),
              "mapped replay of " + Key + " matches the in-RAM replay");
    }
  }
  removeTree(StoreDir);
  return Out;
}

} // namespace hostbench
