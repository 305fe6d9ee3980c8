//===- eval/Experiment.h - Declarative experiment plans ---------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative measurement API behind every table and figure: the
/// paper's evaluation is a matrix -- benchmarks x allocator kinds x
/// machines x trials -- and an ExperimentSpec names a block of that matrix
/// directly instead of going through a bespoke driver per figure.
///
/// buildPlan() expands specs into a deduplicated task DAG over one
/// Evaluation per benchmark: each (benchmark, scale, seed) workload run is
/// recorded once, each benchmark's HALO/HDS pipeline artifacts materialise
/// once, and every requested cell then replays the shared recordings.
/// runPlan() executes that DAG on a single support/Executor pool in four
/// deterministic stages (profile recordings, artifacts, measurement
/// recordings, replays) whose task lists span *all* benchmarks and
/// machines -- so a mixed sweep keeps every worker busy instead of
/// sharding along only one axis -- and lands the results in a ResultSet
/// keyed by the full measurement key. Every value is a deterministic
/// function of its key, so runPlan's output is bit-identical no matter how
/// many workers ran (tests/experiment_test.cpp holds the invariant).
///
/// sweepMachines, compareTechniques, and compareAcrossBenchmarks
/// (eval/Evaluation.h) are thin wrappers over plans; the JSON and table
/// emitters here are the single output path shared by halo_cli's run,
/// sweep, and experiments subcommands.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_EVAL_EXPERIMENT_H
#define HALO_EVAL_EXPERIMENT_H

#include "eval/Evaluation.h"
#include "eval/Report.h"

#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace halo {

class ArtifactStore;

/// The stable spelling of \p Kind used in JSON output and CLI flags.
const char *allocatorKindName(AllocatorKind Kind);

/// Parses an allocatorKindName() spelling; std::nullopt for unknown names.
std::optional<AllocatorKind> parseAllocatorKind(const std::string &Name);

/// All kinds, in declaration order, for CLI listings.
const std::vector<AllocatorKind> &allAllocatorKinds();

/// The stable spelling of \p S ("test" / "ref").
const char *scaleName(Scale S);

/// Parses a scaleName() spelling; std::nullopt for unknown names.
std::optional<Scale> parseScale(const std::string &Name);

/// A one-value compatibility enum filling runPlan's Mode parameter, kept
/// so existing callers compile. Every replay runs serially on the worker
/// that claimed its task; the parameter has no effect.
enum class ReplayMode { Auto };

/// One axis-product block of the evaluation matrix: every benchmark in
/// \p Benchmarks measured under every machine in \p Machines with every
/// allocator kind in \p Kinds, \p Trials trials each. Specs are purely
/// declarative -- nothing records or replays until runPlan().
struct ExperimentSpec {
  std::vector<std::string> Benchmarks;
  /// Machines to measure under. Empty means "the benchmark setup's own
  /// machine" (the default preset unless MakeSetup says otherwise).
  std::vector<const MachineConfig *> Machines;
  std::vector<AllocatorKind> Kinds = {AllocatorKind::Jemalloc,
                                      AllocatorKind::Hds,
                                      AllocatorKind::Halo};
  Scale S = Scale::Ref;
  int Trials = 3;
  uint64_t SeedBase = 100;
  /// Per-benchmark configuration; null means paperSetup(). The first spec
  /// to name a benchmark decides its setup (benchmarks deduplicate by
  /// name across specs).
  std::function<BenchmarkSetup(const std::string &)> MakeSetup;
};

/// The full key of one measured cell: what was measured, on what, how.
struct MeasurementKey {
  std::string Benchmark;
  std::string Machine; ///< MachineConfig::Name the cell replayed under.
  AllocatorKind Kind = AllocatorKind::Jemalloc;
  Scale S = Scale::Ref;
  uint64_t SeedBase = 100;
  int Trials = 0;
};

/// Where every plan's measurements land: one entry per cell, in plan
/// order, each holding the per-trial RunMetrics (Runs[T] is seed
/// SeedBase + T). The emitters below are the one output path for every
/// measurement scenario.
class ResultSet {
public:
  struct Cell {
    MeasurementKey Key;
    /// The resolved machine, never null. For cells measured on "the
    /// benchmark setup's machine" this points into the plan's Evaluation
    /// -- keep the plan alive while dereferencing it (the Key strings
    /// are copies and outlive the plan).
    const MachineConfig *Machine = nullptr;
    std::vector<RunMetrics> Runs;
  };

  const std::vector<Cell> &cells() const { return Cells; }
  bool empty() const { return Cells.empty(); }
  size_t size() const { return Cells.size(); }

  /// The first cell matching (\p Benchmark, \p Machine, \p Kind, \p S)
  /// and, when given, \p SeedBase / \p Trials (plans can hold several
  /// seed/trial blocks of the same coordinate); null if the plan never
  /// measured it.
  const Cell *find(const std::string &Benchmark, const std::string &Machine,
                   AllocatorKind Kind, Scale S,
                   std::optional<uint64_t> SeedBase = std::nullopt,
                   std::optional<int> Trials = std::nullopt) const;

  /// Reassembles a ResultSet from externally produced cells, in the order
  /// given -- the serve client's path: cells streamed through the daemon
  /// come back byte-identical to a local runPlan once ordered by their
  /// plan cell index. Unlike plan-produced sets, Machine pointers here
  /// are whatever the caller resolved (findMachine on the key's name) and
  /// may be null for machines this process has no config for; the
  /// emitters only read the Key.
  static ResultSet fromCells(std::vector<Cell> Cells);

private:
  friend class PlanExecution;
  std::vector<Cell> Cells;
};

/// A deduplicated, executable expansion of one or more specs. Introspect
/// it to see what runPlan() will do; the counts are what the dedup saved.
class ExperimentPlan {
public:
  /// One benchmark's shared state: the Evaluation every cell of that
  /// benchmark measures through (owned by the plan, or borrowed from the
  /// caller), plus the work the cells imply.
  struct Benchmark {
    std::string Name;
    Evaluation *Eval = nullptr;
    bool NeedsHalo = false; ///< Some cell needs the HALO artifacts.
    bool NeedsHds = false;  ///< Some cell needs the HDS artifacts.
    /// Store hits resolved at buildPlan time (always false without a
    /// store). A stored trace/artifact becomes a load task instead of a
    /// record/materialise task, pruning that work from the DAG; runPlan
    /// still self-heals if an entry disappears or decodes corrupt by
    /// recomputing (and re-publishing) inline.
    bool HaloStored = false;
    bool HdsStored = false;
    bool ProfileStored = false; ///< The profile-scale trace is stored.
    /// Deduplicated (scale, seed) measurement recordings the plan must
    /// *record*, sorted. Store hits live in StoredRecordings instead.
    std::vector<std::pair<Scale, uint64_t>> Recordings;
    /// Measurement recordings resolved from the store (load, not record).
    std::vector<std::pair<Scale, uint64_t>> StoredRecordings;
  };

  /// One cell: a (benchmark, machine, kind) coordinate plus its trial
  /// block. Machine == nullptr means the benchmark setup's machine.
  struct Cell {
    size_t Bench = 0; ///< Index into benchmarks().
    const MachineConfig *Machine = nullptr;
    AllocatorKind Kind = AllocatorKind::Jemalloc;
    Scale S = Scale::Ref;
    int Trials = 0;
    uint64_t SeedBase = 100;
  };

  const std::vector<Benchmark> &benchmarks() const { return Benchmarks; }
  const std::vector<Cell> &cells() const { return Cells; }

  /// Total deduplicated measurement recordings the plan will *record*
  /// (store hits are not counted: they are loads, not recordings).
  size_t numRecordings() const;
  /// HALO/HDS pipeline materialisations the plan will run (store hits
  /// excluded for the same reason).
  size_t numArtifactTasks() const;
  /// Total replay tasks (cells x their trials).
  size_t numReplays() const;
  /// Profile-scale recordings the plan will capture: benchmarks with at
  /// least one cold pipeline whose profile trace is not stored.
  size_t numProfileRecordings() const;
  /// Measurement recordings resolved from the artifact store.
  size_t numStoredRecordings() const;
  /// Pipeline artifact bundles resolved from the artifact store.
  size_t numStoredArtifacts() const;
  /// The store consulted at build time and published to at run time.
  ArtifactStore *store() const { return Store; }

private:
  friend ExperimentPlan buildPlan(const std::vector<ExperimentSpec> &Specs,
                                  const std::vector<Evaluation *> &External,
                                  ArtifactStore *Store);
  friend class PlanExecution;
  std::vector<Benchmark> Benchmarks;
  std::vector<Cell> Cells;
  std::vector<std::unique_ptr<Evaluation>> Owned;
  ArtifactStore *Store = nullptr;
};

/// Expands \p Specs into a plan. Benchmarks deduplicate by name across
/// specs (one Evaluation each); identical cells deduplicate entirely;
/// each cell's seeds join its benchmark's recording set once. A benchmark
/// named by an Evaluation in \p External is measured through that caller
/// instance (its cached traces and artifacts are reused) instead of a
/// plan-owned one. Throws std::invalid_argument for unknown benchmarks.
///
/// With \p Store, every recording and artifact key is first looked up in
/// the content-addressed store: hits turn into load tasks (pruning the
/// record/materialise work from the DAG -- a fully warm plan schedules
/// zero of either), misses run cold and publish their results for the
/// next plan. Results are bit-identical either way: loaded traces replay
/// exactly as recorded ones and loaded artifacts rebuild their derived
/// state deterministically.
ExperimentPlan buildPlan(const std::vector<ExperimentSpec> &Specs,
                         const std::vector<Evaluation *> &External = {},
                         ArtifactStore *Store = nullptr);

/// Invoked as soon as every trial of one cell has been measured (from
/// whichever worker thread finished the cell's last replay): the index is
/// the cell's position in ExperimentPlan::cells() order, the reference is
/// into the eventual ResultSet and stays valid until take()/return. This
/// is how serve streams per-cell results while the plan is still running,
/// on the same execution path a local runPlan takes. Callbacks must be
/// thread-safe; a throwing callback fails its cell's task.
using CellCompletionFn =
    std::function<void(size_t CellIndex, const ResultSet::Cell &Cell)>;

/// One plan's work flattened into claimable tasks with stage barriers:
/// the execution engine under runPlan, and the unit the serve daemon's
/// scheduler multiplexes -- many PlanExecutions, one shared pool, tasks
/// interleaved fairly across clients. Scheduling *policy* stays with the
/// callers; this class owns only what a task does and when it is legal
/// to start (ROADMAP: no bespoke scheduling semantics outside the plan
/// scheduler).
///
/// The tasks are the same four stages runPlan always ran -- profile
/// recordings, pipeline artifacts, measurement recordings, replays --
/// and next() enforces the stage barrier: a task of stage k becomes
/// claimable only once every task of stages < k retired. Distinct tasks
/// of one stage are safe to run from concurrent threads (the trace and
/// artifact caches synchronise; each replay writes only its own slot),
/// and every interleaving yields bit-identical results because every
/// value is a deterministic function of its task's key.
class PlanExecution {
public:
  /// Binds to \p Plan, which must outlive this object and not move (and
  /// must not back a second concurrent PlanExecution: claim state lives
  /// here but results accumulate per plan). Sets every benchmark's trace
  /// mode to \p Traces. \p OnCell fires immediately (on this thread) for
  /// degenerate zero-trial cells.
  explicit PlanExecution(ExperimentPlan &Plan,
                         TraceMode Traces = TraceMode::Auto,
                         CellCompletionFn OnCell = nullptr);

  size_t numTasks() const { return Tasks.size(); }

  /// The stage of task \p Task: 0 profile recordings, 1 pipeline
  /// artifacts, 2 measurement recordings, 3 replays.
  unsigned stage(size_t Task) const { return Tasks[Task].Stage; }

  /// Claims the next runnable task id, in deterministic ascending order;
  /// std::nullopt when nothing is runnable *right now* -- the plan
  /// finished, was cancelled or failed, or the current stage's remaining
  /// tasks are all claimed elsewhere (in which case more may become
  /// runnable once they retire). Thread-safe.
  std::optional<size_t> next();

  /// Runs one claimed task. A throwing task marks the whole plan failed
  /// (remaining tasks are abandoned) and rethrows; claimed tasks always
  /// retire, success or not.
  void run(size_t Task);

  /// Stops handing out tasks; claimed ones finish normally. Idempotent.
  void cancel();

  bool cancelled() const;
  bool failed() const;
  /// The first task failure's text ("" while !failed()).
  std::string failureMessage() const;

  /// True once no task will ever run again: everything retired, or the
  /// plan was cancelled/failed and every claimed task has retired.
  bool finished() const;

  /// Moves the results out (call once, after finished()). Cells whose
  /// replays never ran -- cancelled or failed plans -- keep
  /// default-constructed RunMetrics in their slots.
  ResultSet take() { return std::move(Results); }

private:
  struct TaskData {
    unsigned Stage = 0;
    const ExperimentPlan::Benchmark *B = nullptr; ///< Stages 0-2.
    bool Halo = false;                            ///< Stage 1.
    bool Stored = false;                          ///< Stages 0-2.
    Scale S = Scale::Ref;                         ///< Stage 2.
    uint64_t Seed = 0;                            ///< Stage 2.
    size_t Cell = 0;                              ///< Stage 3.
    int Trial = 0;                                ///< Stage 3.
  };

  void execute(const TaskData &T);
  void obtainTrace(const ExperimentPlan::Benchmark &B, Scale S,
                   uint64_t Seed, bool Stored, bool Profile);
  void runArtifact(const TaskData &T);
  void runReplay(const TaskData &T);

  ExperimentPlan &Plan;
  TraceMode Traces;
  CellCompletionFn OnCell;
  ResultSet Results;
  std::vector<TaskData> Tasks;
  size_t StageEnd[4] = {0, 0, 0, 0}; ///< Cumulative task counts.
  /// Trials still unmeasured per cell; the task that takes a cell's count
  /// to zero fires OnCell.
  std::vector<int> CellsRemaining;

  mutable std::mutex Mu;
  size_t NextTask = 0; ///< Tasks claimed so far (claims are a prefix).
  size_t Retired = 0;  ///< Claimed tasks that finished, success or not.
  bool CancelFlag = false;
  bool FailFlag = false;
  std::exception_ptr FirstError;
};

/// Executes \p Plan on one Executor pool (\p Jobs as resolveJobs()
/// interprets it) in four stages -- profile recordings, pipeline
/// artifacts, measurement recordings, cell replays -- each a flat task
/// list spanning every benchmark and machine in the plan, fanned out
/// across the pool task by task. Results are bit-identical to a serial
/// run regardless of Jobs. \p Mode has no effect (see ReplayMode).
///
/// \p Traces decides how measurement recordings are held (profiling
/// always replays the in-RAM trace). Memory is the historical in-RAM
/// path. Mapped records cold traces streaming to disk (into the store
/// when one is attached, so the bytes exist exactly once) and replays
/// every measurement mmap'd block by block in bounded memory. Auto stays
/// in RAM except for stored traces whose decoded size is large enough
/// that loading them whole would dominate the run's footprint -- those
/// open mapped straight off their store entry, zero-copy. Results are
/// bit-identical under every mode ("mapped = in-RAM", README).
///
/// \p OnCell, when given, fires as each cell's last trial lands (see
/// CellCompletionFn) -- the serve daemon's streaming hook; the returned
/// ResultSet is unchanged by it.
ResultSet runPlan(ExperimentPlan &Plan, int Jobs = 0,
                  ReplayMode Mode = ReplayMode::Auto,
                  TraceMode Traces = TraceMode::Auto,
                  CellCompletionFn OnCell = nullptr);

//===----------------------------------------------------------------------===//
// Shared emitters: the one JSON / table output path.
//===----------------------------------------------------------------------===//

/// The `halo_cli run` JSON document: per-run metrics plus medians for one
/// cell's trial block (byte-stable; pinned by the golden_run_json check).
void writeRunsJson(FILE *Out, const std::string &Benchmark,
                   const std::string &Config,
                   const std::vector<RunMetrics> &Runs);

/// One BENCH_machines.json row: a (benchmark, machine, allocator kind)
/// cell of a cross-machine sweep, reduced to medians.
struct SweepRow {
  std::string Bench;
  std::string Machine;
  std::string Kind;
  double WallMs = 0.0; ///< Median simulated run time, in ms.
  int Trials = 0;
  double L1dMisses = 0.0; ///< Median per-run L1D misses.
  double TlbMisses = 0.0; ///< Median per-run dTLB misses.
  double SpeedupPercent = 0.0; ///< vs jemalloc on the same machine.
};

/// Reduces \p Results to sweep rows in cell order. speedup_percent
/// compares each cell against the jemalloc cell sharing its (benchmark,
/// machine, scale, seed block); jemalloc rows read 0, and a non-jemalloc
/// cell without a baseline throws std::logic_error rather than reading
/// as a genuine "no improvement".
std::vector<SweepRow> sweepRows(const ResultSet &Results);

/// The BENCH_machines.json document (byte-stable).
void writeSweepJson(FILE *Out, const std::vector<SweepRow> &Rows);

/// The `halo_cli sweep` table.
Report sweepReport(const std::vector<SweepRow> &Rows);

/// The unified experiments JSON: one object per cell, keyed by the full
/// measurement key, with medians and the per-run metrics.
void writeExperimentsJson(FILE *Out, const ResultSet &Results);

/// The `halo_cli experiments` table: one row per cell, medians only.
Report experimentsReport(const ResultSet &Results);

} // namespace halo

#endif // HALO_EVAL_EXPERIMENT_H
