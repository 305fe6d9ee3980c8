//===- hostbench/src/Common.cpp - Inputs, local passes, digests -----------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "store/ArtifactStore.h"
#include "support/Hash.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace halo;

namespace hostbench {

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

const std::vector<AllocatorKind> ThreeKinds = {
    AllocatorKind::Jemalloc, AllocatorKind::Hds, AllocatorKind::Halo};

PlanRequest request(std::vector<std::string> Benchmarks,
                    std::vector<std::string> Machines,
                    std::vector<AllocatorKind> Kinds, Scale S, int Trials,
                    uint64_t SeedBase) {
  PlanRequest R;
  R.Benchmarks = std::move(Benchmarks);
  R.Machines = std::move(Machines);
  R.Kinds = std::move(Kinds);
  R.S = S;
  R.Trials = Trials;
  R.SeedBase = SeedBase;
  return R;
}

} // namespace

ExperimentSpec toSpec(const PlanRequest &R) {
  ExperimentSpec Spec;
  Spec.Benchmarks = R.Benchmarks;
  for (const std::string &Name : R.Machines) {
    const MachineConfig *M = findMachine(Name);
    if (!M)
      throw std::invalid_argument("unknown machine preset " + Name);
    Spec.Machines.push_back(M);
  }
  Spec.Kinds = R.Kinds;
  Spec.S = R.S;
  Spec.Trials = R.Trials;
  Spec.SeedBase = R.SeedBase;
  return Spec;
}

Inputs makeInputs(const std::string &Workload, uint64_t Seed) {
  Inputs In;
  In.Workload = Workload;
  uint64_t State = Seed * 0x2545f4914f6cdd1dull + 0x1234567ull;
  // Far from the profile seed (1) and the golden run's seeds (100, 101).
  In.SeedBase = 1000 + splitmix(State) % 1000000;
  In.Order = workloadNames();
  for (size_t I = In.Order.size(); I > 1; --I)
    std::swap(In.Order[I - 1], In.Order[splitmix(State) % I]);
  In.CheckSeed = splitmix(State);

  if (Workload == "run_cold") {
    // What `halo_cli run`/`plot` users wait for: each benchmark its own
    // plan on an empty store. Set-up warms the process with one cold plan
    // of the golden benchmark.
    for (const std::string &B : In.Order)
      In.Plans.push_back(
          {request({B}, {}, ThreeKinds, Scale::Ref, 1, In.SeedBase), true});
    In.Warmup.push_back(
        request({"health"}, {}, ThreeKinds, Scale::Ref, 1, In.SeedBase));
  } else if (Workload == "matrix_warm") {
    // The Fig. 13/14 sweep over a store the set-up filled, one trial per
    // cell: 132 replay tasks.
    In.Plans.push_back({request(In.Order, machineNames(), ThreeKinds,
                                Scale::Ref, 1, In.SeedBase),
                        false});
    In.Warmup.push_back(
        request(In.Order, {}, ThreeKinds, Scale::Ref, 1, In.SeedBase));
  } else if (Workload == "serve_mix") {
    for (const std::string &B : In.Order)
      for (AllocatorKind K : ThreeKinds)
        In.Plans.push_back(
            {request({B}, {}, {K}, Scale::Test, 1, In.SeedBase), false});
    for (const std::string &B : In.Order)
      In.Plans.push_back({request({B}, machineNames(), ThreeKinds, Scale::Ref,
                                  1, In.SeedBase),
                          false, true});
    // Each pass serves every small spec twice and every big one once (the
    // same plans for every seed; the big share, 1/7, puts plan_p90_s among
    // the replay-bound plans), shuffled and dealt to the two clients.
    std::vector<size_t> Mix;
    for (size_t I = 0; I < In.Plans.size(); ++I)
      Mix.insert(Mix.end(), In.Plans[I].Big ? 1 : 2, I);
    for (size_t I = Mix.size(); I > 1; --I)
      std::swap(Mix[I - 1], Mix[splitmix(State) % I]);
    In.Clients.resize(2);
    for (size_t I = 0; I < Mix.size(); ++I)
      In.Clients[I % 2].push_back(Mix[I]);
    // The store fill and the daemon warm-up: every recording and artifact
    // the mix reads.
    In.Warmup.push_back(
        request(In.Order, {}, ThreeKinds, Scale::Test, 1, In.SeedBase));
    In.Warmup.push_back(request(In.Order, {}, {AllocatorKind::Jemalloc},
                                Scale::Ref, 1, In.SeedBase));
  } else {
    throw std::invalid_argument("unknown workload '" + Workload + "'");
  }
  return In;
}

std::string Inputs::describe() const {
  auto Req = [](std::ostringstream &OS, const PlanRequest &R) {
    OS << scaleName(R.S) << " x" << R.Trials << " @" << R.SeedBase << " [";
    for (const std::string &B : R.Benchmarks)
      OS << B << ' ';
    OS << "] [";
    for (const std::string &M : R.Machines)
      OS << M << ' ';
    OS << "] [";
    for (AllocatorKind K : R.Kinds)
      OS << allocatorKindName(K) << ' ';
    OS << "]";
  };
  std::ostringstream OS;
  OS << Workload << " seedbase " << SeedBase << " check " << CheckSeed
     << "\n";
  for (const PlanShape &P : Plans) {
    OS << (P.Cold ? "cold " : "warm ") << (P.Big ? "big " : "");
    Req(OS, P.Req);
    OS << "\n";
  }
  for (const PlanRequest &W : Warmup) {
    OS << "warmup ";
    Req(OS, W);
    OS << "\n";
  }
  for (const std::vector<size_t> &C : Clients) {
    OS << "client";
    for (size_t I : C)
      OS << ' ' << I;
    OS << "\n";
  }
  return OS.str();
}

void SimCounters::add(const ResultSet &R) {
  for (const ResultSet::Cell &C : R.cells())
    for (const RunMetrics &M : C.Runs) {
      Accesses += M.Mem.Accesses;
      L1Misses += M.Mem.L1Misses;
      TlbMisses += M.Mem.TlbMisses;
    }
}

uint64_t PassResult::digest() const {
  HashBuilder H;
  for (const PlanSample &P : Plans)
    H.u64(P.Digest);
  return H.hash();
}

void Tally::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    Problems.push_back(What);
    std::fprintf(stderr, "hostbench: check failed: %s\n", What.c_str());
  }
}

std::string cellKey(const std::string &Bench, const std::string &Machine,
                    AllocatorKind Kind, Scale S, uint64_t Seed) {
  return Bench + "/" + Machine + "/" + allocatorKindName(Kind) + "/" +
         scaleName(S) + "/" + std::to_string(Seed);
}

void collectCells(const ResultSet &R, CellRuns &Out) {
  for (const ResultSet::Cell &C : R.cells())
    for (size_t T = 0; T < C.Runs.size(); ++T)
      Out[cellKey(C.Key.Benchmark, C.Key.Machine, C.Key.Kind, C.Key.S,
                  C.Key.SeedBase + T)] = C.Runs[T];
}

bool sameMetrics(const RunMetrics &A, const RunMetrics &B) {
  return A.Seconds == B.Seconds && A.Cycles == B.Cycles &&
         A.Mem.Accesses == B.Mem.Accesses &&
         A.Mem.L1Misses == B.Mem.L1Misses &&
         A.Mem.L2Misses == B.Mem.L2Misses &&
         A.Mem.L3Misses == B.Mem.L3Misses &&
         A.Mem.TlbMisses == B.Mem.TlbMisses &&
         A.Mem.StallCycles == B.Mem.StallCycles &&
         A.InstrumentationOps == B.InstrumentationOps &&
         A.GroupedAllocs == B.GroupedAllocs &&
         A.ForwardedAllocs == B.ForwardedAllocs &&
         A.Frag.PeakResident == B.Frag.PeakResident &&
         A.Frag.LiveAtPeak == B.Frag.LiveAtPeak;
}

namespace {

std::string experimentsJson(const ResultSet &R) {
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Mem = open_memstream(&Buf, &Len);
  if (!Mem)
    throw std::runtime_error("open_memstream failed");
  writeExperimentsJson(Mem, R);
  std::fclose(Mem);
  std::string Out(Buf, Len);
  std::free(Buf);
  return Out;
}

} // namespace

uint64_t resultDigest(const ResultSet &R) {
  std::string Json = experimentsJson(R);
  return fnv1a(Json.data(), Json.size());
}

double cpuSeconds() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

void resetPeakRss() {
  if (FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

void syncFilesystem(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
}

void removeTree(const std::string &Dir) {
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name == "." || Name == "..")
        continue;
      std::string Path = Dir + "/" + Name;
      struct stat St;
      if (lstat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
        removeTree(Path);
      else
        unlink(Path.c_str());
    }
    closedir(D);
  }
  rmdir(Dir.c_str());
}

void makeDirs(const std::string &Dir) {
  for (size_t Pos = 1; Pos <= Dir.size(); ++Pos)
    if (Pos == Dir.size() || Dir[Pos] == '/')
      ::mkdir(Dir.substr(0, Pos).c_str(), 0755);
}

namespace {

/// Replayed trace events of every trial in \p R, read off the traces the
/// plan's Evaluations hold.
uint64_t replayedEvents(ExperimentPlan &Plan, const ResultSet &R) {
  std::map<std::string, Evaluation *> Evals;
  for (const ExperimentPlan::Benchmark &B : Plan.benchmarks())
    Evals[B.Name] = B.Eval;
  uint64_t Events = 0;
  for (const ResultSet::Cell &C : R.cells()) {
    Evaluation *E = Evals.at(C.Key.Benchmark);
    for (size_t T = 0; T < C.Runs.size(); ++T) {
      uint64_t Seed = C.Key.SeedBase + T;
      if (E->hasMappedTrace(C.Key.S, Seed))
        Events += E->mappedTrace(C.Key.S, Seed).numEvents();
      else if (E->hasTrace(C.Key.S, Seed))
        Events += E->trace(C.Key.S, Seed).numEvents();
    }
  }
  return Events;
}

std::string storeFor(const PlanShape &Shape, const std::string &WarmStore,
                     const std::string &ColdDir) {
  if (!Shape.Cold)
    return WarmStore;
  removeTree(ColdDir);
  return ColdDir;
}

} // namespace

PassResult runLocalPass(const std::vector<PlanShape> &Shapes, int Jobs,
                        const std::string &WarmStore,
                        const std::string &ColdDir, CellRuns *Cells) {
  PassResult P;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    std::string Dir = storeFor(Shapes[I], WarmStore, ColdDir);
    // Hand the previous plan's freed memory back, so each plan's resident
    // set does not depend on what ran before it.
    malloc_trim(0);
    resetPeakRss();
    PlanSample S;
    S.Shape = I;
    S.Big = Shapes[I].Big;
    std::mutex FirstMu;
    double First = -1.0;
    CellCompletionFn OnCell = [&](size_t, const ResultSet::Cell &) {
      double Now = nowS();
      std::lock_guard<std::mutex> Lock(FirstMu);
      if (First < 0.0)
        First = Now;
    };
    std::optional<ArtifactStore> Store;
    std::optional<ExperimentPlan> Plan;
    ResultSet R;
    double T0, T1, C0, C1;
    {
      ScopedSpan PlanSpan("plan", newPlanId());
      T0 = nowS();
      C0 = cpuSeconds();
      try {
        if (!Dir.empty())
          Store.emplace(Dir);
        {
          ScopedSpan Build("eval.build_plan");
          Plan.emplace(buildPlan({toSpec(Shapes[I].Req)}, {},
                                 Store ? &*Store : nullptr));
        }
        ScopedSpan Run("eval.run_plan");
        R = runPlan(*Plan, Jobs, ReplayMode::Auto, TraceMode::Auto, OnCell);
      } catch (const std::exception &E) {
        S.Ok = false;
        S.Problem = E.what();
      }
      T1 = nowS();
      C1 = cpuSeconds();
    }
    S.WallS = T1 - T0;
    S.PeakMb = peakRssMb();
    P.PeakMb = std::max(P.PeakMb, S.PeakMb);
    P.CpuS += C1 - C0;
    P.WallS += S.WallS;
    S.TtfcS = (First < 0.0 ? T1 : First) - T0;
    if (S.Ok) {
      S.Digest = resultDigest(R);
      S.Events = replayedEvents(*Plan, R);
      P.Sim.add(R);
      if (Cells)
        collectCells(R, *Cells);
    }
    P.Events += S.Events;
    P.Plans.push_back(S);
  }
  if (!ColdDir.empty())
    removeTree(ColdDir);
  return P;
}

PlanCounts countPlans(const std::vector<PlanShape> &Shapes,
                      const std::string &WarmStore,
                      const std::string &ColdDir) {
  PlanCounts Counts;
  for (const PlanShape &Shape : Shapes) {
    std::string Dir = storeFor(Shape, WarmStore, ColdDir);
    std::optional<ArtifactStore> Store;
    if (!Dir.empty())
      Store.emplace(Dir);
    ExperimentPlan Plan =
        buildPlan({toSpec(Shape.Req)}, {}, Store ? &*Store : nullptr);
    Counts.Hits += Plan.numStoredRecordings() + Plan.numStoredArtifacts();
    Counts.Misses += Plan.numRecordings() + Plan.numArtifactTasks() +
                     Plan.numProfileRecordings();
    Counts.Tasks += PlanExecution(Plan).numTasks();
  }
  if (!ColdDir.empty())
    removeTree(ColdDir);
  return Counts;
}

} // namespace hostbench
