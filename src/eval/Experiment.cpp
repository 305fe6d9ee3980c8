//===- eval/Experiment.cpp - Declarative experiment plans --------------------===//

#include "eval/Experiment.h"

#include "store/ArtifactStore.h"
#include "support/Executor.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include <unistd.h>

using namespace halo;

/// TraceMode::Auto's threshold: a stored trace whose decoded size reaches
/// this opens mapped off its store entry instead of loading whole -- the
/// point where the in-RAM copy would dominate the run's footprint.
static constexpr uint64_t AutoMappedTraceBytes = 256ull << 20;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *halo::allocatorKindName(AllocatorKind Kind) {
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
    return "halo-instrumented";
  }
  return "?";
}

const std::vector<AllocatorKind> &halo::allAllocatorKinds() {
  static const std::vector<AllocatorKind> Kinds = {
      AllocatorKind::Jemalloc,    AllocatorKind::Ptmalloc,
      AllocatorKind::Halo,        AllocatorKind::Hds,
      AllocatorKind::RandomPools, AllocatorKind::HaloInstrumentedOnly};
  return Kinds;
}

std::optional<AllocatorKind> halo::parseAllocatorKind(const std::string &Name) {
  for (AllocatorKind Kind : allAllocatorKinds())
    if (Name == allocatorKindName(Kind))
      return Kind;
  return std::nullopt;
}

const char *halo::scaleName(Scale S) {
  return S == Scale::Test ? "test" : "ref";
}

std::optional<Scale> halo::parseScale(const std::string &Name) {
  if (Name == "test")
    return Scale::Test;
  if (Name == "ref")
    return Scale::Ref;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// ResultSet
//===----------------------------------------------------------------------===//

const ResultSet::Cell *ResultSet::find(const std::string &Benchmark,
                                       const std::string &Machine,
                                       AllocatorKind Kind, Scale S,
                                       std::optional<uint64_t> SeedBase,
                                       std::optional<int> Trials) const {
  for (const Cell &C : Cells)
    if (C.Key.Kind == Kind && C.Key.S == S && C.Key.Benchmark == Benchmark &&
        C.Key.Machine == Machine &&
        (!SeedBase || C.Key.SeedBase == *SeedBase) &&
        (!Trials || C.Key.Trials == *Trials))
      return &C;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// buildPlan
//===----------------------------------------------------------------------===//

size_t ExperimentPlan::numRecordings() const {
  size_t N = 0;
  for (const Benchmark &B : Benchmarks)
    N += B.Recordings.size();
  return N;
}

size_t ExperimentPlan::numArtifactTasks() const {
  size_t N = 0;
  for (const Benchmark &B : Benchmarks)
    N += ((B.NeedsHalo && !B.HaloStored) ? 1 : 0) +
         ((B.NeedsHds && !B.HdsStored) ? 1 : 0);
  return N;
}

size_t ExperimentPlan::numProfileRecordings() const {
  size_t N = 0;
  for (const Benchmark &B : Benchmarks)
    if (((B.NeedsHalo && !B.HaloStored) || (B.NeedsHds && !B.HdsStored)) &&
        !B.ProfileStored)
      ++N;
  return N;
}

size_t ExperimentPlan::numStoredRecordings() const {
  size_t N = 0;
  for (const Benchmark &B : Benchmarks)
    N += B.StoredRecordings.size();
  return N;
}

size_t ExperimentPlan::numStoredArtifacts() const {
  size_t N = 0;
  for (const Benchmark &B : Benchmarks)
    N += ((B.NeedsHalo && B.HaloStored) ? 1 : 0) +
         ((B.NeedsHds && B.HdsStored) ? 1 : 0);
  return N;
}

size_t ExperimentPlan::numReplays() const {
  size_t N = 0;
  for (const Cell &C : Cells)
    N += static_cast<size_t>(std::max(C.Trials, 0));
  return N;
}

ExperimentPlan halo::buildPlan(const std::vector<ExperimentSpec> &Specs,
                               const std::vector<Evaluation *> &External,
                               ArtifactStore *Store) {
  ExperimentPlan Plan;
  Plan.Store = Store;
  // Per-benchmark seed sets, kept outside the plan until sorted.
  std::vector<std::set<std::pair<Scale, uint64_t>>> Seeds;

  auto FindBenchmark = [&](const std::string &Name,
                           const ExperimentSpec &Spec) -> size_t {
    for (size_t B = 0; B < Plan.Benchmarks.size(); ++B)
      if (Plan.Benchmarks[B].Name == Name)
        return B;
    if (!createWorkload(Name))
      throw std::invalid_argument("buildPlan: unknown benchmark '" + Name +
                                  "'");
    ExperimentPlan::Benchmark B;
    B.Name = Name;
    for (Evaluation *E : External)
      if (E && E->setup().Name == Name)
        B.Eval = E;
    if (!B.Eval) {
      Plan.Owned.push_back(std::make_unique<Evaluation>(
          Spec.MakeSetup ? Spec.MakeSetup(Name) : paperSetup(Name)));
      B.Eval = Plan.Owned.back().get();
    }
    Plan.Benchmarks.push_back(std::move(B));
    Seeds.emplace_back();
    return Plan.Benchmarks.size() - 1;
  };

  for (const ExperimentSpec &Spec : Specs) {
    // Empty machine list = one cell on the benchmark setup's own machine.
    std::vector<const MachineConfig *> Machines =
        Spec.Machines.empty()
            ? std::vector<const MachineConfig *>{nullptr}
            : Spec.Machines;
    const int Trials = std::max(Spec.Trials, 0);
    for (const std::string &Name : Spec.Benchmarks) {
      size_t BI = FindBenchmark(Name, Spec);
      ExperimentPlan::Benchmark &B = Plan.Benchmarks[BI];
      for (const MachineConfig *M : Machines) {
        for (AllocatorKind Kind : Spec.Kinds) {
          // Identical cells collapse: the matrix is a set, not a list.
          bool Duplicate = false;
          for (const ExperimentPlan::Cell &C : Plan.Cells)
            if (C.Bench == BI && C.Machine == M && C.Kind == Kind &&
                C.S == Spec.S && C.Trials == Trials &&
                C.SeedBase == Spec.SeedBase) {
              Duplicate = true;
              break;
            }
          if (Duplicate)
            continue;
          ExperimentPlan::Cell C;
          C.Bench = BI;
          C.Machine = M;
          C.Kind = Kind;
          C.S = Spec.S;
          C.Trials = Trials;
          C.SeedBase = Spec.SeedBase;
          Plan.Cells.push_back(C);
          if (Kind == AllocatorKind::Halo ||
              Kind == AllocatorKind::HaloInstrumentedOnly)
            B.NeedsHalo = true;
          else if (Kind == AllocatorKind::Hds)
            B.NeedsHds = true;
          for (int T = 0; T < Trials; ++T)
            Seeds[BI].emplace(Spec.S, Spec.SeedBase + T);
        }
      }
    }
  }

  for (size_t B = 0; B < Plan.Benchmarks.size(); ++B)
    Plan.Benchmarks[B].Recordings.assign(Seeds[B].begin(), Seeds[B].end());

  // Consult the store last, once the needs are final: every hit prunes a
  // record/materialise task from the DAG before runPlan ever schedules
  // it. contains() fully validates entries, so a truncated or bit-flipped
  // file plans as a miss (cold path re-records and re-publishes it).
  if (Store) {
    for (ExperimentPlan::Benchmark &B : Plan.Benchmarks) {
      const BenchmarkSetup &Setup = B.Eval->setup();
      if (B.NeedsHalo)
        B.HaloStored = Store->contains(haloStoreKey(
            B.Name, Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo));
      if (B.NeedsHds)
        B.HdsStored = Store->contains(hdsStoreKey(
            B.Name, Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds));
      if (B.NeedsHalo || B.NeedsHds)
        B.ProfileStored = Store->contains(
            traceStoreKey(B.Name, Setup.ProfileScale, Setup.ProfileSeed));
      std::vector<std::pair<Scale, uint64_t>> Cold;
      for (const std::pair<Scale, uint64_t> &R : B.Recordings)
        if (Store->contains(traceStoreKey(B.Name, R.first, R.second)))
          B.StoredRecordings.push_back(R);
        else
          Cold.push_back(R);
      B.Recordings = std::move(Cold);
    }
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// PlanExecution
//===----------------------------------------------------------------------===//

ResultSet ResultSet::fromCells(std::vector<Cell> CellsIn) {
  ResultSet Results;
  Results.Cells = std::move(CellsIn);
  return Results;
}

PlanExecution::PlanExecution(ExperimentPlan &PlanIn, TraceMode TracesIn,
                             CellCompletionFn OnCellIn)
    : Plan(PlanIn), Traces(TracesIn), OnCell(std::move(OnCellIn)) {
  // Every benchmark's Evaluation measures under the plan's trace mode
  // (Auto resolves per key: mapped exactly where a mapped trace was
  // seeded by the recording tasks).
  for (const ExperimentPlan::Benchmark &B : Plan.Benchmarks)
    B.Eval->setTraceMode(Traces);

  Results.Cells.resize(Plan.Cells.size());
  CellsRemaining.resize(Plan.Cells.size(), 0);
  for (size_t C = 0; C < Plan.Cells.size(); ++C) {
    const ExperimentPlan::Cell &PC = Plan.Cells[C];
    const ExperimentPlan::Benchmark &B = Plan.Benchmarks[PC.Bench];
    ResultSet::Cell &RC = Results.Cells[C];
    RC.Machine = PC.Machine ? PC.Machine : &B.Eval->setup().Machine;
    RC.Key.Benchmark = B.Name;
    RC.Key.Machine = RC.Machine->Name;
    RC.Key.Kind = PC.Kind;
    RC.Key.S = PC.S;
    RC.Key.SeedBase = PC.SeedBase;
    RC.Key.Trials = PC.Trials;
    RC.Runs.resize(static_cast<size_t>(PC.Trials));
    CellsRemaining[C] = PC.Trials;
  }

  // Stage 0: profile recordings (the input both pipelines profile). A
  // benchmark whose needed artifact bundles are all stored skips its
  // profile trace entirely -- the warm path never replays it.
  for (const ExperimentPlan::Benchmark &B : Plan.Benchmarks)
    if ((B.NeedsHalo && !B.HaloStored) || (B.NeedsHds && !B.HdsStored)) {
      TaskData T;
      T.Stage = 0;
      T.B = &B;
      T.Stored = B.ProfileStored;
      Tasks.push_back(T);
    }
  StageEnd[0] = Tasks.size();

  // Stage 1: pipeline artifacts, two independent tasks per benchmark --
  // each either a store load or a cold materialise-and-publish. A corrupt
  // stored bundle falls back to materialising, which (via Evaluation's
  // lazy trace()) records the profile trace inline if stage 0 skipped it.
  for (const ExperimentPlan::Benchmark &B : Plan.Benchmarks) {
    if (B.NeedsHalo) {
      TaskData T;
      T.Stage = 1;
      T.B = &B;
      T.Halo = true;
      T.Stored = B.HaloStored;
      Tasks.push_back(T);
    }
    if (B.NeedsHds) {
      TaskData T;
      T.Stage = 1;
      T.B = &B;
      T.Halo = false;
      T.Stored = B.HdsStored;
      Tasks.push_back(T);
    }
  }
  StageEnd[1] = Tasks.size();

  // Stage 2: measurement recordings -- the expensive half of a sweep --
  // deduplicated per benchmark, flat across all benchmarks at once.
  // Store hits load instead of recording.
  for (const ExperimentPlan::Benchmark &B : Plan.Benchmarks) {
    for (const std::pair<Scale, uint64_t> &R : B.Recordings) {
      TaskData T;
      T.Stage = 2;
      T.B = &B;
      T.S = R.first;
      T.Seed = R.second;
      T.Stored = false;
      Tasks.push_back(T);
    }
    for (const std::pair<Scale, uint64_t> &R : B.StoredRecordings) {
      TaskData T;
      T.Stage = 2;
      T.B = &B;
      T.S = R.first;
      T.Seed = R.second;
      T.Stored = true;
      Tasks.push_back(T);
    }
  }
  StageEnd[2] = Tasks.size();

  // Stage 3: replays, one task per (cell, trial). Every trace and
  // artifact is cached by then, so tasks only read shared state; slot
  // (C, T) always holds seed SeedBase + T, making the ResultSet
  // bit-identical to a serial run no matter the interleaving.
  for (size_t C = 0; C < Plan.Cells.size(); ++C)
    for (int Trial = 0; Trial < Plan.Cells[C].Trials; ++Trial) {
      TaskData T;
      T.Stage = 3;
      T.Cell = C;
      T.Trial = Trial;
      Tasks.push_back(T);
    }
  StageEnd[3] = Tasks.size();

  // Zero-trial cells have no replay task to complete them; they are
  // complete (empty) from the start.
  if (OnCell)
    for (size_t C = 0; C < CellsRemaining.size(); ++C)
      if (CellsRemaining[C] == 0)
        OnCell(C, Results.Cells[C]);
}

std::optional<size_t> PlanExecution::next() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (CancelFlag || FailFlag)
    return std::nullopt;
  // The current stage is the first whose tasks have not all retired; its
  // unclaimed tasks are runnable, later stages wait behind the barrier.
  unsigned Stage = 0;
  while (Stage < 4 && Retired >= StageEnd[Stage])
    ++Stage;
  if (Stage == 4 || NextTask >= StageEnd[Stage])
    return std::nullopt;
  return NextTask++;
}

void PlanExecution::obtainTrace(const ExperimentPlan::Benchmark &B, Scale S,
                                uint64_t Seed, bool Stored, bool Profile) {
  // Loads a stored trace into the cache, or records it cold (publishing
  // to the store when one is attached). A stored entry that vanished or
  // decodes corrupt between buildPlan and here demotes to the cold path
  // inline -- re-record, re-publish -- so the run self-heals instead of
  // failing. Either way the cached trace is byte-identical to a fresh
  // recording, keeping warm results bit-identical to cold ones.
  //
  // Profile recordings always take the in-RAM path: the pipelines replay
  // them through observers, and profile inputs are test-scale.
  // Measurement recordings follow the plan's trace mode.
  ArtifactStore *Store = Plan.Store;
  Evaluation &E = *B.Eval;
  TraceMode M = Profile ? TraceMode::Memory : Traces;
  StoreKey Key;
  if (Store)
    Key = traceStoreKey(B.Name, S, Seed);

  if (M == TraceMode::Mapped) {
    if (E.hasMappedTrace(S, Seed))
      return;
    if (Store && Stored) {
      if (std::optional<MappedTrace> Mapped = openMappedTrace(*Store, Key)) {
        E.addMappedTrace(S, Seed, std::move(*Mapped));
        return;
      }
    }
    if (Store) {
      // Cold with a store: record streaming into the store directory,
      // publish atomically, then map the published entry zero-copy --
      // the trace's bytes exist on disk exactly once. The "tmp." name
      // keeps a crashed recorder's leftovers visible to `store gc`.
      std::string Temp = Store->dir() + "/tmp.rec." + hashHex(Key.Hash) +
                         "." + std::to_string(::getpid());
      E.recordTraceFile(S, Seed, Temp);
      bool Published = putTraceFile(*Store, Key, Temp);
      ::unlink(Temp.c_str());
      if (Published) {
        if (std::optional<MappedTrace> Mapped =
                openMappedTrace(*Store, Key)) {
          E.addMappedTrace(S, Seed, std::move(*Mapped));
          return;
        }
      }
    }
    // No store (or the publish failed): the Evaluation's self-contained
    // temp-file recording.
    E.mappedTrace(S, Seed);
    return;
  }

  if (Store && Stored && !E.hasTrace(S, Seed) && !E.hasMappedTrace(S, Seed)) {
    if (M == TraceMode::Auto) {
      // A stored trace big enough that loading it whole would dominate
      // the run's footprint opens mapped off its entry instead.
      if (std::optional<MappedTrace> Mapped = openMappedTrace(*Store, Key))
        if (Mapped->rawBytes() >= AutoMappedTraceBytes) {
          E.addMappedTrace(S, Seed, std::move(*Mapped));
          return;
        }
    }
    if (std::optional<EventTrace> Loaded = getTrace(*Store, Key)) {
      E.addTrace(S, Seed, std::move(*Loaded));
      return;
    }
  }
  const EventTrace &Trace = E.trace(S, Seed);
  if (Store)
    putTrace(*Store, Key, Trace);
}

void PlanExecution::runArtifact(const TaskData &Task) {
  ArtifactStore *Store = Plan.Store;
  Evaluation &E = *Task.B->Eval;
  const BenchmarkSetup &Setup = E.setup();
  if (Task.Halo) {
    StoreKey Key;
    if (Store)
      Key = haloStoreKey(Task.B->Name, Setup.ProfileScale, Setup.ProfileSeed,
                         Setup.Halo);
    if (Store && Task.Stored && !E.hasHaloArtifacts()) {
      if (std::optional<HaloArtifacts> Art =
              getHaloArtifacts(*Store, Key, E.program())) {
        E.setHaloArtifacts(std::move(*Art));
        return;
      }
    }
    const HaloArtifacts &Art = E.haloArtifacts();
    if (Store)
      putHaloArtifacts(*Store, Key, Art);
  } else {
    StoreKey Key;
    if (Store)
      Key = hdsStoreKey(Task.B->Name, Setup.ProfileScale, Setup.ProfileSeed,
                        Setup.Hds);
    if (Store && Task.Stored && !E.hasHdsArtifacts()) {
      if (std::optional<HdsArtifacts> Art = getHdsArtifacts(*Store, Key)) {
        E.setHdsArtifacts(std::move(*Art));
        return;
      }
    }
    const HdsArtifacts &Art = E.hdsArtifacts();
    if (Store)
      putHdsArtifacts(*Store, Key, Art);
  }
}

void PlanExecution::runReplay(const TaskData &Task) {
  const ExperimentPlan::Cell &PC = Plan.Cells[Task.Cell];
  Evaluation &E = *Plan.Benchmarks[PC.Bench].Eval;
  uint64_t Seed = PC.SeedBase + static_cast<uint64_t>(Task.Trial);
  const MachineConfig &M = PC.Machine ? *PC.Machine : E.setup().Machine;
  Results.Cells[Task.Cell].Runs[static_cast<size_t>(Task.Trial)] =
      E.measure(M, PC.Kind, PC.S, Seed);
}

void PlanExecution::execute(const TaskData &T) {
  switch (T.Stage) {
  case 0: {
    const BenchmarkSetup &Setup = T.B->Eval->setup();
    obtainTrace(*T.B, Setup.ProfileScale, Setup.ProfileSeed, T.Stored,
                /*Profile=*/true);
    break;
  }
  case 1:
    runArtifact(T);
    break;
  case 2:
    obtainTrace(*T.B, T.S, T.Seed, T.Stored, /*Profile=*/false);
    break;
  default:
    runReplay(T);
    break;
  }
}

void PlanExecution::run(size_t Task) {
  const TaskData &T = Tasks[Task];
  try {
    execute(T);
    if (T.Stage == 3) {
      bool CellDone;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        CellDone = --CellsRemaining[T.Cell] == 0;
      }
      // Fired from the finishing worker, outside the claim lock; the
      // cell's slots are all written, so the reference is stable. A
      // throwing callback fails this task like any other error.
      if (CellDone && OnCell)
        OnCell(T.Cell, Results.Cells[T.Cell]);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      FailFlag = true;
      if (!FirstError)
        FirstError = std::current_exception();
      ++Retired;
    }
    throw;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ++Retired;
}

void PlanExecution::cancel() {
  std::lock_guard<std::mutex> Lock(Mu);
  CancelFlag = true;
}

bool PlanExecution::cancelled() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CancelFlag;
}

bool PlanExecution::failed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FailFlag;
}

std::string PlanExecution::failureMessage() const {
  std::exception_ptr Error;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Error = FirstError;
  }
  if (!Error)
    return "";
  try {
    std::rethrow_exception(Error);
  } catch (const std::exception &E) {
    return E.what();
  } catch (...) {
    return "unknown error";
  }
}

bool PlanExecution::finished() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Retired == Tasks.size())
    return true;
  // Cancelled or failed: done once the already-claimed tasks drain.
  return (CancelFlag || FailFlag) && Retired == NextTask;
}

//===----------------------------------------------------------------------===//
// runPlan
//===----------------------------------------------------------------------===//

ResultSet halo::runPlan(ExperimentPlan &Plan, int Jobs, ReplayMode,
                        TraceMode Traces, CellCompletionFn OnCell) {
  PlanExecution Exec(Plan, Traces, std::move(OnCell));
  // One pool drives all four stages; the stage task lists are flat across
  // every benchmark and machine, so a mixed sweep fills the pool at cell
  // granularity instead of sharding along a single axis.
  Executor Pool(Jobs);
  for (;;) {
    // Nothing is in flight between batches, so next() drains exactly one
    // whole stage per iteration (the barrier admits no more).
    std::vector<size_t> Batch;
    while (std::optional<size_t> T = Exec.next())
      Batch.push_back(*T);
    if (Batch.empty())
      break;
    Pool.parallelFor(Batch.size(), [&](size_t I) { Exec.run(Batch[I]); });
  }
  return Exec.take();
}

//===----------------------------------------------------------------------===//
// Wrappers: the pre-plan entry points, now thin spec builders.
//===----------------------------------------------------------------------===//

std::vector<SweepCell>
halo::sweepMachines(Evaluation &Eval,
                    const std::vector<const MachineConfig *> &Machines,
                    int Trials, Scale S, uint64_t SeedBase, int Jobs) {
  static const AllocatorKind Kinds[] = {
      AllocatorKind::Jemalloc, AllocatorKind::Hds, AllocatorKind::Halo};
  constexpr size_t NumKinds = 3;
  std::vector<SweepCell> Cells(Machines.size() * NumKinds);
  if (Machines.empty())
    return Cells;
  // A null entry would mean "the setup's machine" to the plan and then
  // never match the pointer resolution below; fail at the fault site.
  for (const MachineConfig *M : Machines)
    if (!M)
      throw std::invalid_argument("sweepMachines: null machine entry");

  ExperimentSpec Spec;
  Spec.Benchmarks = {Eval.setup().Name};
  Spec.Machines = Machines;
  Spec.Kinds.assign(Kinds, Kinds + NumKinds);
  Spec.S = S;
  Spec.Trials = Trials;
  Spec.SeedBase = SeedBase;
  // The caller's Evaluation backs the plan, so its cached traces and
  // artifacts are shared and stay warm for later calls.
  ExperimentPlan Plan = buildPlan({Spec}, {&Eval});
  ResultSet Results = runPlan(Plan, Jobs);

  // Resolve by machine POINTER, not name: distinct caller-owned configs
  // may share a (possibly empty) Name, but each is its own plan cell.
  for (size_t M = 0; M < Machines.size(); ++M)
    for (size_t K = 0; K < NumKinds; ++K) {
      SweepCell &Cell = Cells[M * NumKinds + K];
      Cell.Machine = Machines[M];
      Cell.Kind = Kinds[K];
      for (const ResultSet::Cell &Found : Results.cells())
        if (Found.Machine == Machines[M] && Found.Key.Kind == Kinds[K]) {
          Cell.Runs = Found.Runs;
          break;
        }
    }
  return Cells;
}

/// Reduces one benchmark's three cells to the paper's headline row.
static ComparisonRow rowFromResults(const ResultSet &Results,
                                    const std::string &Benchmark,
                                    const std::string &Machine, Scale S) {
  const ResultSet::Cell *Base =
      Results.find(Benchmark, Machine, AllocatorKind::Jemalloc, S);
  const ResultSet::Cell *Hds =
      Results.find(Benchmark, Machine, AllocatorKind::Hds, S);
  const ResultSet::Cell *Halo =
      Results.find(Benchmark, Machine, AllocatorKind::Halo, S);

  ComparisonRow Row;
  Row.Benchmark = Benchmark;
  // A missing cell is a plan/lookup logic error; an all-zero row would
  // read as a genuine "no improvement" measurement.
  if (!Base || !Hds || !Halo)
    throw std::logic_error("comparison plan missing a cell for " +
                           Benchmark + " on " + Machine);
  Row.HdsMissReduction =
      percentImprovement(Evaluation::medianL1Misses(Base->Runs),
                         Evaluation::medianL1Misses(Hds->Runs));
  Row.HaloMissReduction =
      percentImprovement(Evaluation::medianL1Misses(Base->Runs),
                         Evaluation::medianL1Misses(Halo->Runs));
  Row.HdsSpeedup = percentImprovement(Evaluation::medianSeconds(Base->Runs),
                                      Evaluation::medianSeconds(Hds->Runs));
  Row.HaloSpeedup = percentImprovement(Evaluation::medianSeconds(Base->Runs),
                                       Evaluation::medianSeconds(Halo->Runs));
  return Row;
}

/// The one spec both comparison entry points expand to.
static ExperimentSpec comparisonSpec(std::vector<std::string> Benchmarks,
                                     int Trials, Scale S,
                                     const MachineConfig &Machine) {
  ExperimentSpec Spec;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Machines = {&Machine};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds,
                AllocatorKind::Halo};
  Spec.S = S;
  Spec.Trials = Trials;
  // Pre-plan behaviour: the comparison's machine was the setup machine,
  // so the pipelines materialised under it. Keep that exact wiring.
  Spec.MakeSetup = [&Machine](const std::string &Name) {
    BenchmarkSetup Setup = paperSetup(Name);
    Setup.Machine = Machine;
    return Setup;
  };
  return Spec;
}

ComparisonRow halo::compareTechniques(const std::string &Benchmark,
                                      int Trials, Scale S, int Jobs,
                                      const MachineConfig &Machine) {
  ExperimentPlan Plan =
      buildPlan({comparisonSpec({Benchmark}, Trials, S, Machine)});
  ResultSet Results = runPlan(Plan, Jobs);
  return rowFromResults(Results, Benchmark, Machine.Name, S);
}

std::vector<ComparisonRow>
halo::compareAcrossBenchmarks(const std::vector<std::string> &Benchmarks,
                              int Trials, Scale S, int Jobs,
                              const MachineConfig &Machine) {
  ExperimentPlan Plan =
      buildPlan({comparisonSpec(Benchmarks, Trials, S, Machine)});
  ResultSet Results = runPlan(Plan, Jobs);
  std::vector<ComparisonRow> Rows;
  Rows.reserve(Benchmarks.size());
  // Row order follows the request; duplicate names share one cell block.
  for (const std::string &Benchmark : Benchmarks)
    Rows.push_back(rowFromResults(Results, Benchmark, Machine.Name, S));
  return Rows;
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

/// The per-run JSON object shared by the run document and the unified
/// experiments document (field set and formatting are byte-pinned by the
/// golden_run_json check).
static void writeRunObject(FILE *Out, const RunMetrics &M) {
  std::fprintf(Out,
               "{\"seconds\": %.9f, \"cycles\": %llu, "
               "\"l1d_accesses\": %llu, \"l1d_misses\": %llu, "
               "\"l2_misses\": %llu, \"l3_misses\": %llu, "
               "\"tlb_misses\": %llu, \"grouped_allocs\": %llu, "
               "\"forwarded_allocs\": %llu, \"frag_percent\": %.4f, "
               "\"frag_bytes\": %llu}",
               M.Seconds, (unsigned long long)M.Cycles,
               (unsigned long long)M.Mem.Accesses,
               (unsigned long long)M.Mem.L1Misses,
               (unsigned long long)M.Mem.L2Misses,
               (unsigned long long)M.Mem.L3Misses,
               (unsigned long long)M.Mem.TlbMisses,
               (unsigned long long)M.GroupedAllocs,
               (unsigned long long)M.ForwardedAllocs, M.Frag.wastedPercent(),
               (unsigned long long)M.Frag.wastedBytes());
}

void halo::writeRunsJson(FILE *Out, const std::string &Benchmark,
                         const std::string &Config,
                         const std::vector<RunMetrics> &Runs) {
  std::fprintf(Out,
               "{\n  \"benchmark\": \"%s\",\n  \"configuration\": \"%s\",\n"
               "  \"runs\": [\n",
               Benchmark.c_str(), Config.c_str());
  for (size_t I = 0; I < Runs.size(); ++I) {
    std::fputs("    ", Out);
    writeRunObject(Out, Runs[I]);
    std::fprintf(Out, "%s\n", I + 1 < Runs.size() ? "," : "");
  }
  std::fprintf(Out,
               "  ],\n  \"median_seconds\": %.9f,\n"
               "  \"median_l1d_misses\": %.0f\n}\n",
               Evaluation::medianSeconds(Runs),
               Evaluation::medianL1Misses(Runs));
}

std::vector<SweepRow> halo::sweepRows(const ResultSet &Results) {
  // speedup% compares each cell against the jemalloc cell sharing every
  // non-kind key dimension (benchmark, machine, scale, seed block);
  // keyed by content, not position, so the cell layout is free to change
  // without mislabelling rows, and mixed-scale result sets never borrow
  // a baseline from the wrong scale. The machine is the resolved POINTER
  // (distinct caller-owned configs may share a name but are distinct
  // cells), matching how the plan itself keys cells.
  using BaselineKey =
      std::tuple<std::string, const MachineConfig *, int, uint64_t, int>;
  auto KeyOf = [](const ResultSet::Cell &Cell) {
    return BaselineKey{Cell.Key.Benchmark, Cell.Machine,
                       static_cast<int>(Cell.Key.S), Cell.Key.SeedBase,
                       Cell.Key.Trials};
  };
  std::map<BaselineKey, double> BaselineSeconds;
  for (const ResultSet::Cell &Cell : Results.cells())
    if (Cell.Key.Kind == AllocatorKind::Jemalloc)
      BaselineSeconds[KeyOf(Cell)] = Evaluation::medianSeconds(Cell.Runs);

  std::vector<SweepRow> Rows;
  Rows.reserve(Results.size());
  for (const ResultSet::Cell &Cell : Results.cells()) {
    double Seconds = Evaluation::medianSeconds(Cell.Runs);
    SweepRow Row;
    Row.Bench = Cell.Key.Benchmark;
    Row.Machine = Cell.Key.Machine;
    Row.Kind = allocatorKindName(Cell.Key.Kind);
    Row.WallMs = Seconds * 1e3;
    Row.Trials = Cell.Key.Trials;
    Row.L1dMisses = Evaluation::medianL1Misses(Cell.Runs);
    Row.TlbMisses = Evaluation::medianTlbMisses(Cell.Runs);
    if (Cell.Key.Kind == AllocatorKind::Jemalloc) {
      Row.SpeedupPercent = 0.0;
    } else {
      auto Baseline = BaselineSeconds.find(KeyOf(Cell));
      // A missing baseline must fail loudly: a silent 0.0 would read as
      // a genuine "no improvement" measurement.
      if (Baseline == BaselineSeconds.end())
        throw std::logic_error(
            "sweepRows: no jemalloc baseline cell for " +
            Cell.Key.Benchmark + " on " + Cell.Key.Machine);
      Row.SpeedupPercent = percentImprovement(Baseline->second, Seconds);
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

void halo::writeSweepJson(FILE *Out, const std::vector<SweepRow> &Rows) {
  std::fputs("[\n", Out);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"machine\": \"%s\", "
                 "\"kind\": \"%s\", \"wall_ms\": %.6f, \"trials\": %d, "
                 "\"l1d_misses\": %.0f, \"tlb_misses\": %.0f, "
                 "\"speedup_percent\": %.4f}%s\n",
                 R.Bench.c_str(), R.Machine.c_str(), R.Kind.c_str(),
                 R.WallMs, R.Trials, R.L1dMisses, R.TlbMisses,
                 R.SpeedupPercent, I + 1 < Rows.size() ? "," : "");
  }
  std::fputs("]\n", Out);
}

Report halo::sweepReport(const std::vector<SweepRow> &Rows) {
  Report Table("Cross-machine sweep: median run time / misses per machine");
  Table.setColumns({"bench", "machine", "kind", "wall_ms", "l1d_misses",
                    "tlb_misses", "speedup%"});
  for (const SweepRow &R : Rows)
    Table.addRow({R.Bench, R.Machine, R.Kind, formatDouble(R.WallMs, 3),
                  formatDouble(R.L1dMisses, 0), formatDouble(R.TlbMisses, 0),
                  formatDouble(R.SpeedupPercent, 2)});
  Table.addNote("wall_ms: median simulated run time on that machine; "
                "speedup%: vs jemalloc on the same machine");
  return Table;
}

void halo::writeExperimentsJson(FILE *Out, const ResultSet &Results) {
  std::fputs("[\n", Out);
  const std::vector<ResultSet::Cell> &Cells = Results.cells();
  for (size_t C = 0; C < Cells.size(); ++C) {
    const ResultSet::Cell &Cell = Cells[C];
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"machine\": \"%s\", "
                 "\"kind\": \"%s\", \"scale\": \"%s\", \"trials\": %d, "
                 "\"seed_base\": %llu,\n"
                 "   \"median_seconds\": %.9f, \"median_l1d_misses\": %.0f, "
                 "\"median_tlb_misses\": %.0f,\n"
                 "   \"runs\": [\n",
                 Cell.Key.Benchmark.c_str(), Cell.Key.Machine.c_str(),
                 allocatorKindName(Cell.Key.Kind), scaleName(Cell.Key.S),
                 Cell.Key.Trials, (unsigned long long)Cell.Key.SeedBase,
                 Evaluation::medianSeconds(Cell.Runs),
                 Evaluation::medianL1Misses(Cell.Runs),
                 Evaluation::medianTlbMisses(Cell.Runs));
    for (size_t R = 0; R < Cell.Runs.size(); ++R) {
      std::fputs("     ", Out);
      writeRunObject(Out, Cell.Runs[R]);
      std::fprintf(Out, "%s\n", R + 1 < Cell.Runs.size() ? "," : "");
    }
    std::fprintf(Out, "   ]}%s\n", C + 1 < Cells.size() ? "," : "");
  }
  std::fputs("]\n", Out);
}

Report halo::experimentsReport(const ResultSet &Results) {
  Report Table("Experiment matrix: one row per (benchmark, machine, kind) "
               "cell");
  Table.setColumns({"bench", "machine", "kind", "scale", "trials", "wall_ms",
                    "l1d_misses", "tlb_misses"});
  for (const ResultSet::Cell &Cell : Results.cells())
    Table.addRow({Cell.Key.Benchmark, Cell.Key.Machine,
                  allocatorKindName(Cell.Key.Kind), scaleName(Cell.Key.S),
                  std::to_string(Cell.Key.Trials),
                  formatDouble(Evaluation::medianSeconds(Cell.Runs) * 1e3, 3),
                  formatDouble(Evaluation::medianL1Misses(Cell.Runs), 0),
                  formatDouble(Evaluation::medianTlbMisses(Cell.Runs), 0)});
  Table.addNote("wall_ms: median simulated run time; every cell is keyed by "
                "the full measurement key");
  return Table;
}
