//===- hostbench/src/Bench.h - Shared types of the benchmark ----*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-time benchmark of the halo library: three workloads (cold
/// single-benchmark plans, the warm cross-machine figure matrix, and a
/// served closed-loop mix) timed end to end, a traced run that times the
/// calls into each layer's public functions, and output checks that run
/// outside every timed region. See hostbench/README.md for the metrics.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_BENCH_H
#define HOSTBENCH_BENCH_H

#include "eval/Experiment.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hostbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Root = ".";    ///< Checkout root (holds tests/golden).
  std::string WorkDir;       ///< Stores, sockets, temp traces.
  std::string ResultsDir;    ///< Result records and span dumps.
  int Jobs = 1;              ///< nproc.
};

/// One plan: the wire shape of an ExperimentSpec, plus whether it runs
/// against a fresh empty store (cold) or the workload's filled one.
struct PlanShape {
  halo::PlanRequest Req;
  bool Cold = false;
  bool Big = false; ///< serve_mix: a ref-scale multi-machine plan.
};

halo::ExperimentSpec toSpec(const halo::PlanRequest &R);

/// Everything a workload seed decides. The library only ever sees the
/// SeedBase, the benchmark order and the request mix derived here.
struct Inputs {
  std::string Workload;
  uint64_t SeedBase = 100;
  std::vector<std::string> Order;     ///< Every benchmark, seeded order.
  /// The plans one pass runs locally (run_cold, matrix_warm), or the
  /// distinct specs of the served mix (serve_mix).
  std::vector<PlanShape> Plans;
  /// serve_mix: the store fill and the daemon warm-up requests.
  std::vector<halo::PlanRequest> Warmup;
  /// serve_mix: each client's plan sequence, as indices into Plans.
  std::vector<std::vector<size_t>> Clients;
  uint64_t CheckSeed = 0; ///< Picks the oracle sample.

  /// A canonical text of every generated input.
  std::string describe() const;
};

Inputs makeInputs(const std::string &Workload, uint64_t Seed);

struct SimCounters {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t TlbMisses = 0;
  void add(const halo::ResultSet &R);
  bool operator==(const SimCounters &O) const {
    return Accesses == O.Accesses && L1Misses == O.L1Misses &&
           TlbMisses == O.TlbMisses;
  }
};

struct PlanSample {
  size_t Shape = 0;
  bool Big = false;
  bool Ok = true;
  double WallS = 0.0;
  double TtfcS = 0.0; ///< Submit (or runPlan call) to first finished cell.
  double AckS = 0.0;  ///< Served plans: submit to PlanQueued.
  uint64_t Digest = 0; ///< FNV-1a of the plan's experiments JSON.
  uint64_t Events = 0; ///< Replayed trace events.
  double PeakMb = 0.0; ///< Local plans: peak resident set while it ran.
  std::string Problem;
};

struct PassResult {
  double WallS = 0.0;
  double CpuS = 0.0;
  /// Peak resident set: served passes over the whole pass, local ones
  /// the largest of their plans' (each starts from a trimmed heap).
  double PeakMb = 0.0;
  std::vector<PlanSample> Plans;
  SimCounters Sim;
  uint64_t Events = 0;
  uint64_t digest() const;
};

/// Failed and attempted operations: plans of the timed load plus every
/// output check.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  void check(bool Ok, const std::string &What);
};

/// One measured cell of a result set, keyed by its full measurement key
/// and trial; used to check the layer probe against the load.
using CellRuns = std::map<std::string, halo::RunMetrics>;
std::string cellKey(const std::string &Bench, const std::string &Machine,
                    halo::AllocatorKind Kind, halo::Scale S, uint64_t Seed);
void collectCells(const halo::ResultSet &R, CellRuns &Out);
bool sameMetrics(const halo::RunMetrics &A, const halo::RunMetrics &B);

uint64_t resultDigest(const halo::ResultSet &R);

double cpuSeconds();
/// Flushes the dirty pages of the filesystem holding \p Dir, so writeback
/// of set-up's files does not land inside a timed pass.
void syncFilesystem(const std::string &Dir);
/// Restarts the kernel's peak-RSS watermark for this process.
void resetPeakRss();
/// Peak resident set since the last resetPeakRss(), in MiB.
double peakRssMb();
void removeTree(const std::string &Dir);
void makeDirs(const std::string &Dir);

/// Runs \p Shapes as local plans, one after another, at \p Jobs. Warm
/// shapes use the store at \p WarmStore (none if empty); cold ones a fresh
/// store under \p ColdDir, removed between plans outside the timing. With
/// \p Cells, every measured cell lands there too. Spans: "plan" per shape,
/// "eval.build_plan" and "eval.run_plan" inside it.
PassResult runLocalPass(const std::vector<PlanShape> &Shapes, int Jobs,
                        const std::string &WarmStore,
                        const std::string &ColdDir,
                        CellRuns *Cells = nullptr);

/// Counters the traced run derives from the plans of a local pass.
struct PlanCounts {
  uint64_t Tasks = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};
PlanCounts countPlans(const std::vector<PlanShape> &Shapes,
                      const std::string &WarmStore, const std::string &ColdDir);

/// The layer probe: every benchmark the shapes name is decomposed into
/// direct calls of each layer's public function, under spans named after
/// the layer metrics. Replays cover every cell of the shapes; each is
/// checked against \p Load.
struct ProbeResult {
  uint64_t TraceEvents = 0;
  uint64_t TraceBytes = 0;
  uint64_t GraphNodes = 0;
  uint64_t GraphEdges = 0;
  uint64_t Groups = 0;
  uint64_t StoreBytes = 0;
  uint64_t ReplayedEvents = 0;
  double MappedS = 0.0;    ///< Mapped replays of the default-machine cells.
  double InRamS = 0.0;     ///< The same replays from RAM.
};
ProbeResult probeLayers(const std::vector<PlanShape> &Shapes,
                        const std::string &StoreDir, const CellRuns &Load,
                        Tally &T);

/// A HaloDaemon serving on its own thread of this process.
class InProcessDaemon {
public:
  /// Starts serving on \p Socket over the store at \p StoreDir and returns
  /// once the socket accepts connections. Throws if it never does.
  InProcessDaemon(const std::string &Socket, const std::string &StoreDir,
                  int Jobs);
  ~InProcessDaemon() { stop(); }
  InProcessDaemon(const InProcessDaemon &) = delete;
  InProcessDaemon &operator=(const InProcessDaemon &) = delete;

  /// Drains in-flight plans and joins the serving thread. Idempotent.
  void stop();
  const std::string &socket() const { return Socket; }

private:
  std::string Socket;
  std::unique_ptr<halo::HaloDaemon> Daemon;
  std::string Error; ///< What serve() threw, if it did.
  std::thread Thread;
};

/// One pass of the served mix: every client of \p In on its own thread and
/// connection, each submitting its next plan only once the previous one
/// completed. Spans: "serve.plan" per plan, with "serve.submit" and
/// "serve.wait" inside.
PassResult runServePass(const Inputs &In, const std::string &Socket);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_H
