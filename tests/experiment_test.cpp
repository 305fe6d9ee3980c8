//===- tests/experiment_test.cpp - Declarative experiment plans --------------===//
//
// The plan contract: buildPlan expands specs into a deduplicated matrix
// (benchmarks by name, cells by full key, recordings by (scale, seed)),
// runPlan executes it bit-identically no matter how many workers ran, and
// every cell equals what the pre-plan measureTrials path produces for the
// same key -- which is what makes sweepMachines / compareTechniques /
// compareAcrossBenchmarks safe as thin wrappers.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiment.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

using namespace halo;

namespace {

/// findMachine, hard-asserted: a null entry in ExperimentSpec::Machines
/// would silently mean "the setup's machine", not the named preset.
const MachineConfig *preset(const char *Name) {
  const MachineConfig *M = findMachine(Name);
  EXPECT_NE(M, nullptr) << Name;
  return M;
}

/// Two-benchmark, two-machine, two-kind mixed matrix at test scale: the
/// shape the plan scheduler exists for.
ExperimentSpec mixedSpec() {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft", "health"};
  Spec.Machines = {preset("xeon-w2195"), preset("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
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

} // namespace

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

TEST(ExperimentNames, KindsRoundTrip) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    std::optional<AllocatorKind> Parsed =
        parseAllocatorKind(allocatorKindName(Kind));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Kind);
  }
  EXPECT_FALSE(parseAllocatorKind("tcmalloc").has_value());
  EXPECT_FALSE(parseAllocatorKind("").has_value());
}

TEST(ExperimentNames, ScalesRoundTrip) {
  EXPECT_EQ(parseScale(scaleName(Scale::Test)), Scale::Test);
  EXPECT_EQ(parseScale(scaleName(Scale::Ref)), Scale::Ref);
  EXPECT_FALSE(parseScale("train").has_value());
}

//===----------------------------------------------------------------------===//
// buildPlan
//===----------------------------------------------------------------------===//

TEST(BuildPlan, DeduplicatesBenchmarksCellsAndRecordings) {
  ExperimentSpec First;
  First.Benchmarks = {"health"};
  First.Machines = {findMachine("xeon-w2195"), findMachine("mobile")};
  First.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  First.S = Scale::Test;
  First.Trials = 2;

  // Overlaps First in one cell (jemalloc on the default machine) and in
  // every seed; adds only the HDS cell.
  ExperimentSpec Second = First;
  Second.Machines = {findMachine("xeon-w2195")};
  Second.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds};

  ExperimentPlan Plan = buildPlan({First, Second});
  ASSERT_EQ(Plan.benchmarks().size(), 1u);
  EXPECT_EQ(Plan.benchmarks()[0].Name, "health");
  EXPECT_TRUE(Plan.benchmarks()[0].NeedsHalo);
  EXPECT_TRUE(Plan.benchmarks()[0].NeedsHds);
  // 4 cells from First, 1 new from Second (its jemalloc cell collapses).
  EXPECT_EQ(Plan.cells().size(), 5u);
  // Seeds 100 and 101 record once, not once per cell.
  EXPECT_EQ(Plan.numRecordings(), 2u);
  EXPECT_EQ(Plan.numArtifactTasks(), 2u);
  EXPECT_EQ(Plan.numReplays(), 10u);
}

TEST(BuildPlan, DistinctSeedBlocksStayDistinct) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentSpec Shifted = Spec;
  Shifted.SeedBase = 101; // Overlaps seed 101, adds seed 102.

  ExperimentPlan Plan = buildPlan({Spec, Shifted});
  EXPECT_EQ(Plan.cells().size(), 2u);
  EXPECT_EQ(Plan.numRecordings(), 3u); // 100, 101, 102.
  EXPECT_EQ(Plan.numArtifactTasks(), 0u); // jemalloc needs no pipelines.

  // find() disambiguates same-coordinate cells by seed block.
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  const ResultSet::Cell *First =
      Results.find("ft", defaultMachine().Name, AllocatorKind::Jemalloc,
                   Scale::Test, /*SeedBase=*/100);
  const ResultSet::Cell *Second =
      Results.find("ft", defaultMachine().Name, AllocatorKind::Jemalloc,
                   Scale::Test, /*SeedBase=*/101);
  ASSERT_NE(First, nullptr);
  ASSERT_NE(Second, nullptr);
  EXPECT_NE(First, Second);
  EXPECT_EQ(First->Key.SeedBase, 100u);
  EXPECT_EQ(Second->Key.SeedBase, 101u);
  // Seed 101 is shared by both blocks: First's trial 1 is Second's 0.
  EXPECT_EQ(First->Runs[1].Cycles, Second->Runs[0].Cycles);
}

TEST(BuildPlan, RejectsUnknownBenchmarks) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health", "gcc"};
  EXPECT_THROW(buildPlan({Spec}), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// runPlan
//===----------------------------------------------------------------------===//

TEST(RunPlan, SerialMatchesParallelBitIdentically) {
  // Every stage fans out across its tasks, so the plan shape decides how
  // many tasks each stage has: the mixed matrix, and a single-benchmark
  // three-kind one-trial cold plan, whose replay stage has exactly three
  // tasks. (The 1x1x1 halo_cli plan is TraceShard.RunPlanModesAgree.)
  ExperimentSpec ThreeKinds;
  ThreeKinds.Benchmarks = {"health"};
  ThreeKinds.S = Scale::Test;
  ThreeKinds.Trials = 1;
  const struct {
    const char *Name;
    ExperimentSpec Spec;
    size_t Cells;
  } Shapes[] = {
      {"mixed", mixedSpec(), 8}, // 2 benchmarks x 2 machines x 2 kinds.
      {"three kinds", ThreeKinds, 3},
  };
  for (const auto &Shape : Shapes) {
    ExperimentPlan SerialPlan = buildPlan({Shape.Spec});
    ResultSet Serial = runPlan(SerialPlan, /*Jobs=*/1);
    ASSERT_EQ(Serial.size(), Shape.Cells) << Shape.Name;
    for (int Jobs : {2, 4}) {
      SCOPED_TRACE(std::string(Shape.Name) + " jobs " +
                   std::to_string(Jobs));
      ExperimentPlan ParallelPlan = buildPlan({Shape.Spec});
      ResultSet Parallel = runPlan(ParallelPlan, Jobs);
      ASSERT_EQ(Parallel.size(), Serial.size());
      for (size_t C = 0; C < Serial.size(); ++C) {
        SCOPED_TRACE("cell " + std::to_string(C));
        EXPECT_EQ(Serial.cells()[C].Key.Benchmark,
                  Parallel.cells()[C].Key.Benchmark);
        EXPECT_EQ(Serial.cells()[C].Key.Machine,
                  Parallel.cells()[C].Key.Machine);
        EXPECT_EQ(Serial.cells()[C].Key.Kind, Parallel.cells()[C].Key.Kind);
        expectSameRuns(Serial.cells()[C].Runs, Parallel.cells()[C].Runs);
      }
    }
  }
}

TEST(RunPlan, EveryCellMatchesTheMeasureTrialsOracle) {
  // The plan must measure exactly what the per-benchmark measureTrials
  // path measures for the same key: this is what makes the wrapper
  // conversions bit-identical to the pre-plan API.
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);

  for (const std::string &Name : {"ft", "health"}) {
    Evaluation Oracle(paperSetup(Name));
    for (const char *MachineName : {"xeon-w2195", "mobile"})
      for (AllocatorKind Kind :
           {AllocatorKind::Jemalloc, AllocatorKind::Halo}) {
        SCOPED_TRACE(Name + std::string(" on ") + MachineName);
        const ResultSet::Cell *Cell =
            Results.find(Name, MachineName, Kind, Scale::Test);
        ASSERT_NE(Cell, nullptr);
        expectSameRuns(Cell->Runs,
                       Oracle.measureTrials(*findMachine(MachineName), Kind,
                                            Scale::Test, 2));
      }
  }
}

TEST(RunPlan, EmptyMachineListUsesTheSetupMachine) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results.cells()[0].Key.Machine, defaultMachine().Name);
  Evaluation Oracle(paperSetup("ft"));
  expectSameRuns(Results.cells()[0].Runs,
                 Oracle.measureTrials(AllocatorKind::Jemalloc, Scale::Test,
                                      2));
}

TEST(RunPlan, ExternalEvaluationBacksItsBenchmark) {
  Evaluation Eval(paperSetup("health"));
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Kinds = {AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  ExperimentPlan Plan = buildPlan({Spec}, {&Eval});
  ASSERT_EQ(Plan.benchmarks().size(), 1u);
  // The caller's instance, not a plan-owned copy...
  EXPECT_EQ(Plan.benchmarks()[0].Eval, &Eval);
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  // ...so its caches are warm afterwards: measuring again replays the
  // trace the plan recorded and reads the artifacts it materialised.
  RunMetrics Again = Eval.measure(AllocatorKind::Halo, Scale::Test, 100);
  ASSERT_EQ(Results.cells()[0].Runs.size(), 1u);
  EXPECT_EQ(Again.Cycles, Results.cells()[0].Runs[0].Cycles);
  EXPECT_EQ(Again.Mem.L1Misses, Results.cells()[0].Runs[0].Mem.L1Misses);
}

TEST(RunPlan, ConcurrentRunPlansMatchTheSerialOracle) {
  // Two runPlan calls racing in one process -- the serve daemon's steady
  // state -- must produce exactly what each would serially: the workload
  // registry, trace caches, and ResultSet writes are all either
  // thread-confined or locked.
  ExperimentSpec SpecA = mixedSpec();
  ExperimentSpec SpecB;
  SpecB.Benchmarks = {"health"};
  SpecB.Machines = {preset("mobile")};
  SpecB.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds};
  SpecB.S = Scale::Test;
  SpecB.Trials = 3;

  ExperimentPlan OracleA = buildPlan({SpecA});
  ResultSet SerialA = runPlan(OracleA, /*Jobs=*/1);
  ExperimentPlan OracleB = buildPlan({SpecB});
  ResultSet SerialB = runPlan(OracleB, /*Jobs=*/1);

  ResultSet RacedA, RacedB;
  std::thread TA([&] {
    ExperimentPlan Plan = buildPlan({SpecA});
    RacedA = runPlan(Plan, /*Jobs=*/2);
  });
  std::thread TB([&] {
    ExperimentPlan Plan = buildPlan({SpecB});
    RacedB = runPlan(Plan, /*Jobs=*/2);
  });
  TA.join();
  TB.join();

  ASSERT_EQ(RacedA.size(), SerialA.size());
  for (size_t C = 0; C < SerialA.size(); ++C) {
    SCOPED_TRACE("plan A cell " + std::to_string(C));
    expectSameRuns(RacedA.cells()[C].Runs, SerialA.cells()[C].Runs);
  }
  ASSERT_EQ(RacedB.size(), SerialB.size());
  for (size_t C = 0; C < SerialB.size(); ++C) {
    SCOPED_TRACE("plan B cell " + std::to_string(C));
    expectSameRuns(RacedB.cells()[C].Runs, SerialB.cells()[C].Runs);
  }
}

TEST(RunPlan, ConcurrentRunPlansMayShareAnExternalEvaluation) {
  // Harder still: both racing plans measure through the SAME warm
  // Evaluation (the daemon's warm cache hands one instance to every
  // in-flight plan). Its trace and artifact caches are internally locked,
  // so the race must be invisible in the results.
  Evaluation Shared(paperSetup("health"));
  ExperimentSpec SpecA;
  SpecA.Benchmarks = {"health"};
  SpecA.Machines = {preset("xeon-w2195")};
  SpecA.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  SpecA.S = Scale::Test;
  SpecA.Trials = 2;
  ExperimentSpec SpecB = SpecA;
  SpecB.Machines = {preset("mobile")};
  SpecB.Kinds = {AllocatorKind::Halo, AllocatorKind::Hds};

  ExperimentPlan OracleA = buildPlan({SpecA});
  ResultSet SerialA = runPlan(OracleA, /*Jobs=*/1);
  ExperimentPlan OracleB = buildPlan({SpecB});
  ResultSet SerialB = runPlan(OracleB, /*Jobs=*/1);

  ResultSet RacedA, RacedB;
  std::thread TA([&] {
    ExperimentPlan Plan = buildPlan({SpecA}, {&Shared});
    RacedA = runPlan(Plan, /*Jobs=*/2);
  });
  std::thread TB([&] {
    ExperimentPlan Plan = buildPlan({SpecB}, {&Shared});
    RacedB = runPlan(Plan, /*Jobs=*/2);
  });
  TA.join();
  TB.join();

  ASSERT_EQ(RacedA.size(), SerialA.size());
  for (size_t C = 0; C < SerialA.size(); ++C) {
    SCOPED_TRACE("plan A cell " + std::to_string(C));
    expectSameRuns(RacedA.cells()[C].Runs, SerialA.cells()[C].Runs);
  }
  ASSERT_EQ(RacedB.size(), SerialB.size());
  for (size_t C = 0; C < SerialB.size(); ++C) {
    SCOPED_TRACE("plan B cell " + std::to_string(C));
    expectSameRuns(RacedB.cells()[C].Runs, SerialB.cells()[C].Runs);
  }
}

TEST(RunPlan, OnCellFiresExactlyOncePerCellWithFinalContents) {
  // The streaming hook serve rides on: every cell announced exactly once,
  // as soon as its last trial lands, with runs identical to what the
  // returned ResultSet ends up holding.
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  const size_t NumCells = Plan.cells().size();
  std::mutex Mu;
  std::vector<int> Fired(NumCells, 0);
  std::vector<std::vector<RunMetrics>> Seen(NumCells);
  ResultSet Results = runPlan(
      Plan, /*Jobs=*/2, ReplayMode::Auto, TraceMode::Auto,
      [&](size_t Cell, const ResultSet::Cell &C) {
        std::lock_guard<std::mutex> Lock(Mu);
        ASSERT_LT(Cell, NumCells);
        ++Fired[Cell];
        Seen[Cell] = C.Runs;
      });
  ASSERT_EQ(Results.size(), NumCells);
  for (size_t C = 0; C < NumCells; ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    EXPECT_EQ(Fired[C], 1);
    expectSameRuns(Seen[C], Results.cells()[C].Runs);
  }
}

TEST(ResultSet, FindLocatesCellsByFullKey) {
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  const ResultSet::Cell *Cell =
      Results.find("health", "mobile", AllocatorKind::Halo, Scale::Test);
  ASSERT_NE(Cell, nullptr);
  EXPECT_EQ(Cell->Machine, findMachine("mobile"));
  EXPECT_EQ(Cell->Key.Trials, 2);
  // Misses on any key dimension return null.
  EXPECT_EQ(Results.find("health", "mobile", AllocatorKind::Halo,
                         Scale::Ref),
            nullptr);
  EXPECT_EQ(Results.find("health", "server", AllocatorKind::Halo,
                         Scale::Test),
            nullptr);
  EXPECT_EQ(Results.find("roms", "mobile", AllocatorKind::Halo, Scale::Test),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Wrappers
//===----------------------------------------------------------------------===//

TEST(Wrappers, SweepMachinesMatchesManualMeasureTrials) {
  std::vector<const MachineConfig *> Machines = {findMachine("mobile"),
                                                 findMachine("server")};
  Evaluation Eval(paperSetup("ft"));
  std::vector<SweepCell> Cells =
      sweepMachines(Eval, Machines, /*Trials=*/2, Scale::Test,
                    /*SeedBase=*/100, /*Jobs=*/2);

  ASSERT_EQ(Cells.size(), 6u);
  const AllocatorKind KindOrder[] = {AllocatorKind::Jemalloc,
                                     AllocatorKind::Hds,
                                     AllocatorKind::Halo};
  Evaluation Oracle(paperSetup("ft"));
  for (size_t C = 0; C < Cells.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    EXPECT_EQ(Cells[C].Machine, Machines[C / 3]);
    EXPECT_EQ(Cells[C].Kind, KindOrder[C % 3]);
    expectSameRuns(Cells[C].Runs,
                   Oracle.measureTrials(*Machines[C / 3], KindOrder[C % 3],
                                        Scale::Test, 2));
  }
}

TEST(Wrappers, CompareTechniquesMatchesManualComputation) {
  const MachineConfig &Machine = *findMachine("mobile");
  ComparisonRow Row =
      compareTechniques("health", /*Trials=*/2, Scale::Test, /*Jobs=*/2,
                        Machine);

  // The pre-plan construction, verbatim: one Evaluation whose setup
  // machine is the comparison machine, three measureTrials blocks.
  BenchmarkSetup Setup = paperSetup("health");
  Setup.Machine = Machine;
  Evaluation Eval(std::move(Setup));
  auto Base = Eval.measureTrials(AllocatorKind::Jemalloc, Scale::Test, 2);
  auto Hds = Eval.measureTrials(AllocatorKind::Hds, Scale::Test, 2);
  auto Halo = Eval.measureTrials(AllocatorKind::Halo, Scale::Test, 2);

  EXPECT_EQ(Row.Benchmark, "health");
  EXPECT_DOUBLE_EQ(Row.HdsMissReduction,
                   percentImprovement(Evaluation::medianL1Misses(Base),
                                      Evaluation::medianL1Misses(Hds)));
  EXPECT_DOUBLE_EQ(Row.HaloMissReduction,
                   percentImprovement(Evaluation::medianL1Misses(Base),
                                      Evaluation::medianL1Misses(Halo)));
  EXPECT_DOUBLE_EQ(Row.HdsSpeedup,
                   percentImprovement(Evaluation::medianSeconds(Base),
                                      Evaluation::medianSeconds(Hds)));
  EXPECT_DOUBLE_EQ(Row.HaloSpeedup,
                   percentImprovement(Evaluation::medianSeconds(Base),
                                      Evaluation::medianSeconds(Halo)));
}

TEST(Wrappers, CompareAcrossBenchmarksRepeatsDuplicateRows) {
  auto Rows = compareAcrossBenchmarks({"ft", "ft"}, /*Trials=*/2,
                                      Scale::Test, /*Jobs=*/1);
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Benchmark, "ft");
  EXPECT_DOUBLE_EQ(Rows[0].HaloSpeedup, Rows[1].HaloSpeedup);
  EXPECT_DOUBLE_EQ(Rows[0].HdsMissReduction, Rows[1].HdsMissReduction);
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

TEST(Emitters, SweepRowsComputeSpeedupAgainstTheirOwnBaseline) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Machines = {findMachine("xeon-w2195"), findMachine("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  std::vector<SweepRow> Rows = sweepRows(Results);
  ASSERT_EQ(Rows.size(), 4u);
  for (size_t R = 0; R < Rows.size(); ++R) {
    SCOPED_TRACE("row " + std::to_string(R));
    const ResultSet::Cell &Cell = Results.cells()[R];
    EXPECT_EQ(Rows[R].Bench, Cell.Key.Benchmark);
    EXPECT_EQ(Rows[R].Machine, Cell.Key.Machine);
    EXPECT_EQ(Rows[R].Kind, allocatorKindName(Cell.Key.Kind));
    EXPECT_EQ(Rows[R].Trials, 2);
    double Seconds = Evaluation::medianSeconds(Cell.Runs);
    EXPECT_DOUBLE_EQ(Rows[R].WallMs, Seconds * 1e3);
    if (Cell.Key.Kind == AllocatorKind::Jemalloc) {
      EXPECT_DOUBLE_EQ(Rows[R].SpeedupPercent, 0.0);
    } else {
      const ResultSet::Cell *Base = Results.find(
          Cell.Key.Benchmark, Cell.Key.Machine, AllocatorKind::Jemalloc,
          Scale::Test);
      ASSERT_NE(Base, nullptr);
      EXPECT_DOUBLE_EQ(Rows[R].SpeedupPercent,
                       percentImprovement(
                           Evaluation::medianSeconds(Base->Runs), Seconds));
    }
  }
}

TEST(Emitters, SweepRowsRejectMissingBaselines) {
  // A non-jemalloc cell with no same-key jemalloc baseline must throw:
  // a silent 0.0 would read as a genuine "no improvement" measurement.
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Hds};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  EXPECT_THROW(sweepRows(Results), std::logic_error);
}

TEST(Emitters, ExperimentsJsonCarriesTheFullMeasurementKey) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Machines = {findMachine("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  Spec.SeedBase = 7;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  char *Buffer = nullptr;
  size_t Size = 0;
  FILE *Out = open_memstream(&Buffer, &Size);
  ASSERT_NE(Out, nullptr);
  writeExperimentsJson(Out, Results);
  std::fclose(Out);
  std::string Json(Buffer, Size);
  free(Buffer);

  EXPECT_NE(Json.find("\"bench\": \"ft\""), std::string::npos);
  EXPECT_NE(Json.find("\"machine\": \"mobile\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"jemalloc\""), std::string::npos);
  EXPECT_NE(Json.find("\"scale\": \"test\""), std::string::npos);
  EXPECT_NE(Json.find("\"seed_base\": 7"), std::string::npos);
  EXPECT_NE(Json.find("\"median_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"runs\""), std::string::npos);
}
