//===- hostbench/src/main.cpp - The host-time benchmark program -----------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
//
//   hostbench --workload run_cold|matrix_warm|serve_mix --seed N
//             --seconds S --trace 0|1 --root DIR --work DIR --results DIR
//             [--commit SHA]
//   hostbench --self-test
//
// One run: set the workload up (several times, reporting the median), run
// whole passes of its timed load until --seconds have elapsed, then check
// every output outside the timing. --trace 1 alternates traced and
// untraced passes, then probes each layer under spans and reports the
// per-layer metrics instead of the end-to-end ones. The last stdout line
// is the result object; a record with the host stamp, the inputs digest,
// every metric and the simulated counters goes to --results.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "serve/Client.h"
#include "store/ArtifactStore.h"
#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

using namespace halo;
using namespace hostbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string hostJson(const Options &O, const std::string &Commit) {
  std::ostringstream OS;
  OS << "{\"nproc\": " << O.Jobs << ", \"cpu\": \"" << jsonEscape(cpuModel())
     << "\", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << jsonEscape(__VERSION__)
     << "\", \"commit\": \"" << jsonEscape(Commit) << "\"}";
  return OS.str();
}

std::vector<PlanShape> asShapes(const std::vector<PlanRequest> &Reqs,
                                bool Cold) {
  std::vector<PlanShape> Out;
  for (const PlanRequest &R : Reqs)
    Out.push_back({R, Cold});
  return Out;
}

void checkPass(const PassResult &P, const std::string &Where, Tally &T) {
  for (const PlanSample &S : P.Plans)
    T.check(S.Ok, Where + ": plan " + std::to_string(S.Shape) +
                      (S.Problem.empty() ? "" : " failed: " + S.Problem));
}

/// The `halo_cli run health --trials 2` plan, emitted through the same
/// writer, against the committed golden bytes.
void checkGolden(const Options &O, Tally &T) {
  std::string Golden = readFile(O.Root + "/tests/golden/run_health.json");
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Kinds = {AllocatorKind::Halo};
  Spec.S = Scale::Ref;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet R = runPlan(Plan, O.Jobs);
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Mem = open_memstream(&Buf, &Len);
  writeRunsJson(Mem, "health", "run", R.cells().front().Runs);
  std::fclose(Mem);
  std::string Got(Buf, Len);
  std::free(Buf);
  T.check(!Golden.empty() && Got == Golden,
          "run health --trials 2 matches tests/golden/run_health.json");
}

/// Re-measures a seeded sample of the plans' cells through the trace-free
/// Evaluation::measureDirect oracle. Artifacts come from \p StoreDir when
/// it holds them, else the oracle's Evaluation profiles afresh.
void checkOracle(const Inputs &In, const CellRuns &Cells,
                 const std::string &StoreDir, Tally &T) {
  struct Pick {
    std::string Bench, Machine;
    AllocatorKind Kind;
    Scale S;
    uint64_t Seed;
  };
  std::vector<Pick> All;
  for (const PlanShape &P : In.Plans) {
    std::vector<std::string> Machines = P.Req.Machines;
    if (Machines.empty())
      Machines.push_back(defaultMachine().Name);
    for (const std::string &B : P.Req.Benchmarks)
      for (const std::string &M : Machines)
        for (AllocatorKind K : P.Req.Kinds)
          for (int Tr = 0; Tr < P.Req.Trials; ++Tr)
            All.push_back({B, M, K, P.Req.S,
                           P.Req.SeedBase + static_cast<uint64_t>(Tr)});
  }
  constexpr size_t Samples = 3;
  uint64_t State = In.CheckSeed;
  std::optional<ArtifactStore> Store;
  if (!StoreDir.empty())
    Store.emplace(StoreDir);
  for (size_t I = 0; I < Samples && !All.empty(); ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    const Pick &P = All[(State >> 33) % All.size()];
    BenchmarkSetup Setup = paperSetup(P.Bench);
    Evaluation E(Setup);
    if (Store) {
      if (auto A = getHaloArtifacts(
              *Store,
              haloStoreKey(P.Bench, Setup.ProfileScale, Setup.ProfileSeed,
                           Setup.Halo),
              E.program()))
        E.setHaloArtifacts(std::move(*A));
      if (auto A = getHdsArtifacts(
              *Store, hdsStoreKey(P.Bench, Setup.ProfileScale,
                                  Setup.ProfileSeed, Setup.Hds)))
        E.setHdsArtifacts(std::move(*A));
    }
    RunMetrics Direct =
        E.measureDirect(*findMachine(P.Machine), P.Kind, P.S, P.Seed);
    std::string Key = cellKey(P.Bench, P.Machine, P.Kind, P.S, P.Seed);
    auto It = Cells.find(Key);
    T.check(It != Cells.end() && sameMetrics(It->second, Direct),
            "measureDirect oracle agrees with " + Key);
  }
}

/// Per-name self time of the spans under the root span named \p Root.
std::map<std::string, double> selfTimeUnder(const std::vector<Span> &Spans,
                                            const std::string &Root) {
  std::vector<Span> Kept;
  std::vector<int> NewIndex(Spans.size(), -1);
  for (size_t I = 0; I < Spans.size(); ++I) {
    int A = static_cast<int>(I);
    while (Spans[static_cast<size_t>(A)].Parent >= 0)
      A = Spans[static_cast<size_t>(A)].Parent;
    if (Spans[static_cast<size_t>(A)].Name != Root)
      continue;
    Span S = Spans[I];
    S.Parent = S.Parent >= 0 ? NewIndex[static_cast<size_t>(S.Parent)] : -1;
    NewIndex[I] = static_cast<int>(Kept.size());
    Kept.push_back(S);
  }
  return selfTimeByName(Kept);
}

struct Run {
  Options O;
  std::string Commit = "unknown";
  Inputs In;
  Tally T;
  std::string Store, Cold, ProbeStore, ServeStore, Socket;
  std::vector<double> SetupSamples;
  double FillS = 0.0;
  std::unique_ptr<InProcessDaemon> Daemon;
  std::vector<PassResult> Untraced, Traced;
  DaemonStats AtLoadStart; ///< serve_mix: the daemon's counters.
  CellRuns Cells;
  /// serve_mix: the local runPlan of every distinct spec.
  PassResult Local;
  std::vector<Metric> Metrics;
  std::vector<Metric> Extra; ///< Written to the record only.

  bool serve() const { return In.Workload == "serve_mix"; }
  /// The deterministic results of one pass: the first local pass, or for
  /// serve_mix the local runPlan of every distinct spec.
  const PassResult &reference() const {
    return serve() ? Local : Untraced.front();
  }
  void setUp();
  void load();
  void checks();
  void traceLayers();
  void endToEnd();
  int finish();
};

void Run::setUp() {
  Store = O.WorkDir + "/store";
  Cold = O.WorkDir + "/cold";
  ProbeStore = O.WorkDir + "/probe";
  ServeStore = O.WorkDir + "/serve";
  Socket = O.WorkDir + "/halo.sock";
  if (In.Workload == "run_cold") {
    // Warm the process (code, pool, allocator) with one cold plan.
    for (int K = 0; K < 3; ++K) {
      PassResult P = runLocalPass(asShapes(In.Warmup, true), O.Jobs, "", Cold);
      checkPass(P, "set-up", T);
      SetupSamples.push_back(P.WallS);
    }
  } else if (In.Workload == "matrix_warm") {
    for (int K = 0; K < 3; ++K) {
      removeTree(Store);
      PassResult P =
          runLocalPass(asShapes(In.Warmup, false), O.Jobs, Store, "");
      checkPass(P, "store fill", T);
      SetupSamples.push_back(P.WallS);
    }
  } else {
    removeTree(Store);
    PassResult Fill =
        runLocalPass(asShapes(In.Warmup, false), O.Jobs, Store, "");
    checkPass(Fill, "store fill", T);
    FillS = Fill.WallS;
    syncFilesystem(O.WorkDir);
    for (int K = 0; K < 3; ++K) {
      Daemon.reset();
      double T0 = nowS();
      Daemon = std::make_unique<InProcessDaemon>(Socket, Store, O.Jobs);
      HaloClient Client(Socket);
      for (const PlanRequest &R : In.Warmup) {
        PlanOutcome Out = Client.wait(Client.submit(R));
        T.check(Out.Status == PlanStatus::Ok, "daemon warm-up plan");
      }
      SetupSamples.push_back(nowS() - T0);
    }
  }
  syncFilesystem(O.WorkDir);
}

void Run::load() {
  if (serve())
    AtLoadStart = HaloClient(Socket).stats();
  double Start = nowS();
  for (;;) {
    bool TracePass = O.Trace && Traced.size() < Untraced.size();
    bool First = Untraced.empty() && !TracePass;
    recorder().setEnabled(TracePass);
    PassResult P;
    {
      ScopedSpan Phase("phase.load");
      if (serve()) {
        resetPeakRss();
        P = runServePass(In, Socket);
        P.PeakMb = peakRssMb();
      } else {
        P = runLocalPass(In.Plans, O.Jobs, Store, Cold,
                         First ? &Cells : nullptr);
      }
    }
    recorder().setEnabled(false);
    (TracePass ? Traced : Untraced).push_back(std::move(P));
    bool Enough = nowS() - Start >= O.Seconds;
    if (Enough && (!O.Trace || !Traced.empty()))
      break;
  }
}

void Run::checks() {
  const PassResult &Ref = Untraced.front();
  if (serve()) {
    // "served = local": every served plan against a local runPlan of the
    // same spec over the same store.
    Local = runLocalPass(In.Plans, O.Jobs, Store, "", &Cells);
    checkPass(Local, "local reference", T);
    for (std::vector<PassResult> *Set : {&Untraced, &Traced})
      for (PassResult &P : *Set) {
        P.Events = 0;
        for (const PlanSample &S : P.Plans) {
          T.check(S.Ok && S.Digest == Local.Plans[S.Shape].Digest,
                  "served plan " + std::to_string(S.Shape) +
                      " equals its local runPlan" +
                      (S.Problem.empty() ? "" : ": " + S.Problem));
          P.Events += Local.Plans[S.Shape].Events;
        }
      }
  } else {
    for (const std::vector<PassResult> *Set : {&Untraced, &Traced})
      for (const PassResult &P : *Set)
        checkPass(P, "load", T);
  }
  // Repeated passes replay the same inputs: identical bytes and counters,
  // traced or not.
  for (const std::vector<PassResult> *Set : {&Untraced, &Traced})
    for (const PassResult &P : *Set)
      if (&P != &Ref)
        T.check(P.digest() == Ref.digest() && P.Sim == Ref.Sim,
                "a repeated pass reproduces the first pass's results");
  checkOracle(In, Cells, In.Workload == "run_cold" ? "" : Store, T);
  checkGolden(O, T);
}

void Run::traceLayers() {
  const PassResult &Ref = Untraced.front();
  recorder().setEnabled(true);
  ProbeResult Probe;
  {
    ScopedSpan Phase("phase.probe");
    Probe = probeLayers(In.Plans, ProbeStore, Cells, T);
  }
  PassResult Jobs1;
  {
    ScopedSpan Phase("phase.jobs1");
    Jobs1 = runLocalPass(In.Plans, 1, Store, Cold);
  }
  checkPass(Jobs1, "jobs 1", T);
  const PassResult &Nproc = reference();
  T.check(Jobs1.digest() == Nproc.digest() && Jobs1.Sim == Nproc.Sim,
          "jobs 1 reproduces the jobs-nproc results");
  PlanCounts Counts = countPlans(In.Plans, Store, Cold);

  std::vector<double> Rtt, Acks;
  DaemonStats Before, After;
  {
    ScopedSpan Phase("phase.serve");
    std::unique_ptr<InProcessDaemon> Probed;
    if (!serve()) {
      removeTree(ServeStore);
      Probed = std::make_unique<InProcessDaemon>(
          Socket, In.Plans.front().Cold ? ServeStore : Store, O.Jobs);
    }
    HaloClient Client(Socket);
    Before = Client.stats();
    for (int I = 0; I < 20; ++I) {
      double T0 = nowS();
      Client.stats();
      Rtt.push_back(nowS() - T0);
    }
    if (serve()) {
      for (const PassResult &P : Traced)
        for (const PlanSample &S : P.Plans)
          Acks.push_back(S.AckS);
      Before = AtLoadStart;
    } else {
      double T0 = nowS();
      uint64_t Id = Client.submit(In.Plans.front().Req);
      Acks.push_back(nowS() - T0);
      PlanOutcome Out = Client.wait(Id);
      T.check(Out.Status == PlanStatus::Ok &&
                  resultDigest(Out.Results) == Ref.Plans.front().Digest,
              "the served first plan equals its local runPlan");
    }
    After = Client.stats();
  }
  recorder().setEnabled(false);

  std::vector<Span> Spans = recorder().snapshot();
  std::string Problem = checkSpans(Spans);
  T.check(Problem.empty(), "spans nest with non-negative self times" +
                               (Problem.empty() ? "" : ": " + Problem));
  std::string SpanPath = O.ResultsDir + "/spans-" + In.Workload + "-seed" +
                         std::to_string(O.Seed) + ".json";
  if (FILE *F = std::fopen(SpanPath.c_str(), "w")) {
    writeSpansJson(F, Spans);
    std::fclose(F);
  }

  std::map<std::string, double> P = selfTimeUnder(Spans, "phase.probe");
  std::map<std::string, double> J = selfTimeUnder(Spans, "phase.jobs1");
  auto Ms = [&](const char *Name) { return 1e3 * P[Name]; };
  double ReplayMs = Ms("runtime.replay.jemalloc") + Ms("runtime.replay.hds") +
                    Ms("runtime.replay.halo");
  // What the plans of one pass call, layer by layer: cold plans record,
  // run both pipelines and publish; warm ones load.
  double LayerMs =
      ReplayMs + (In.Plans.front().Cold
                      ? Ms("trace.record") + Ms("core.optimize") +
                            Ms("hds.optimize") + Ms("store.put_trace") +
                            Ms("store.put_artifacts")
                      : Ms("store.get_trace") + Ms("store.get_artifacts"));
  std::vector<double> TracedWalls, UntracedWalls;
  for (const PassResult &R : Traced)
    TracedWalls.push_back(R.WallS);
  for (const PassResult &R : Untraced)
    UntracedWalls.push_back(R.WallS);
  auto D = [](uint64_t V) { return static_cast<double>(V); };

  Metrics = {
      {"trace.record_ms", Ms("trace.record"), "ms"},
      {"trace.events", D(Probe.TraceEvents), "count"},
      {"trace.bytes_per_event",
       D(Probe.TraceBytes) / std::max(1.0, D(Probe.TraceEvents)), "B/event"},
      {"core.optimize_ms", Ms("core.optimize"), "ms"},
      {"graph.nodes", D(Probe.GraphNodes), "count"},
      {"graph.edges", D(Probe.GraphEdges), "count"},
      {"group.build_ms", Ms("group.build"), "ms"},
      {"group.groups", D(Probe.Groups), "count"},
      {"identify.ms", Ms("identify"), "ms"},
      {"hds.optimize_ms", Ms("hds.optimize"), "ms"},
      {"runtime.replay_ms.jemalloc", Ms("runtime.replay.jemalloc"), "ms"},
      {"runtime.replay_ms.hds", Ms("runtime.replay.hds"), "ms"},
      {"runtime.replay_ms.halo", Ms("runtime.replay.halo"), "ms"},
      {"runtime.ns_per_event",
       1e6 * ReplayMs / std::max(1.0, D(Probe.ReplayedEvents)), "ns/event"},
      {"runtime.mapped_over_ram",
       Probe.InRamS > 0 ? Probe.MappedS / Probe.InRamS : 0.0, "ratio"},
      {"store.put_trace_ms", Ms("store.put_trace"), "ms"},
      {"store.put_artifacts_ms", Ms("store.put_artifacts"), "ms"},
      {"store.bytes_written", D(Probe.StoreBytes), "bytes"},
      {"store.get_trace_ms", Ms("store.get_trace"), "ms"},
      {"store.open_mapped_ms", Ms("store.open_mapped"), "ms"},
      {"store.get_artifacts_ms", Ms("store.get_artifacts"), "ms"},
      {"store.hits", D(Counts.Hits), "count"},
      {"store.misses", D(Counts.Misses), "count"},
      {"eval.build_plan_ms", 1e3 * J["eval.build_plan"], "ms"},
      {"eval.tasks", D(Counts.Tasks), "count"},
      {"eval.jobs1_wall_s", Jobs1.WallS, "s"},
      {"eval.scaling",
       Jobs1.WallS / (serve() ? Local.WallS : median(UntracedWalls)),
       "ratio"},
      {"eval.overhead_ms", 1e3 * Jobs1.WallS - LayerMs, "ms"},
      {"serve.stats_rtt_ms", 1e3 * median(Rtt), "ms"},
      {"serve.submit_ack_ms", 1e3 * median(Acks), "ms"},
      {"serve.tasks_executed", D(After.TasksExecuted - Before.TasksExecuted),
       "count"},
      {"serve.cells_streamed", D(After.CellsStreamed - Before.CellsStreamed),
       "count"},
      {"sim.accesses", D(Nproc.Sim.Accesses), "count"},
      {"sim.l1d_misses", D(Nproc.Sim.L1Misses), "count"},
      {"sim.tlb_misses", D(Nproc.Sim.TlbMisses), "count"},
      {"tracing.overhead_s", median(TracedWalls) - median(UntracedWalls),
       "s"},
  };
}

void Run::endToEnd() {
  std::vector<double> Walls, Cpus, Lat, Ttfc, Peaks;
  double TotalWall = 0.0, Events = 0.0, Plans = 0.0;
  for (const PassResult &P : Untraced) {
    Walls.push_back(P.WallS);
    Cpus.push_back(P.CpuS);
    TotalWall += P.WallS;
    Events += static_cast<double>(P.Events);
    Peaks.push_back(P.PeakMb);
    for (const PlanSample &S : P.Plans) {
      Plans += 1.0;
      Lat.push_back(S.WallS);
      // serve_mix: time to first cell over the multi-cell plans.
      if (!serve() || S.Big)
        Ttfc.push_back(S.TtfcS);
    }
  }
  double Attempted = static_cast<double>(std::max<uint64_t>(T.Attempted, 1));
  Metrics = {
      {"wall_s", median(Walls), "s"},
      {"cpu_s", median(Cpus), "s"},
      {"setup_s", FillS + median(SetupSamples), "s"},
      {"plan_p50_s", median(Lat), "s"},
      {"plan_p90_s", percentile(Lat, 0.9), "s"},
      {"ttfc_p50_s", median(Ttfc), "s"},
      {"plans_per_s", Plans / TotalWall, "1/s"},
      {"sim_events_per_s", Events / TotalWall, "1/s"},
      {"peak_rss_mb", median(Peaks), "MiB"},
      {"ok_frac", 1.0 - static_cast<double>(T.Failed) / Attempted, "ratio"},
  };
  Extra = {{"plans_timed", Plans, "count"},
           {"plans_beyond_p90",
            static_cast<double>(Lat.size()) -
                std::ceil(0.9 * static_cast<double>(Lat.size())),
            "count"},
           {"passes", static_cast<double>(Untraced.size()), "count"}};
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::ostringstream OS;
  OS.precision(10);
  OS << "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Ms[I].Name << "\": {\"value\": "
       << Ms[I].Value << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  OS << "}";
  return OS.str();
}

int Run::finish() {
  const PassResult &Ref = reference();
  std::string Host = hostJson(O, Commit);
  std::string Describe = In.describe();
  std::ostringstream Rec;
  Rec.precision(10);
  Rec << "{\n  \"workload\": \"" << In.Workload << "\",\n  \"seed\": " << O.Seed
      << ",\n  \"trace\": " << (O.Trace ? 1 : 0) << ",\n  \"host\": " << Host
      << ",\n  \"inputs_digest\": \"" << hashHex(fnv1a(Describe.data(),
                                                       Describe.size()))
      << "\",\n  \"result_digest\": \"" << hashHex(Ref.digest())
      << "\",\n  \"sim\": {\"accesses\": " << Ref.Sim.Accesses
      << ", \"l1d_misses\": " << Ref.Sim.L1Misses
      << ", \"tlb_misses\": " << Ref.Sim.TlbMisses
      << "},\n  \"setup_samples_s\": [";
  for (size_t I = 0; I < SetupSamples.size(); ++I)
    Rec << (I ? ", " : "") << SetupSamples[I];
  Rec << "],\n  \"store_fill_s\": " << FillS << ",\n  \"pass_wall_s\": [";
  for (size_t I = 0; I < Untraced.size(); ++I)
    Rec << (I ? ", " : "") << Untraced[I].WallS;
  Rec << "],\n  \"plans_wall_ttfc_big_peak\": [";
  for (size_t I = 0; I < Untraced.size(); ++I)
    for (size_t J = 0; J < Untraced[I].Plans.size(); ++J)
      Rec << (I || J ? ", " : "") << "[" << Untraced[I].Plans[J].WallS << ", "
          << Untraced[I].Plans[J].TtfcS << ", "
          << (Untraced[I].Plans[J].Big ? 1 : 0) << ", "
          << Untraced[I].Plans[J].PeakMb << "]";
  Rec << "],\n  \"metrics\": " << metricsJson(Metrics)
      << ",\n  \"extra\": " << metricsJson(Extra)
      << ",\n  \"attempted\": " << T.Attempted
      << ",\n  \"failed\": " << T.Failed
      << ",\n  \"problems\": [";
  for (size_t I = 0; I < T.Problems.size(); ++I)
    Rec << (I ? ", " : "") << "\"" << jsonEscape(T.Problems[I]) << "\"";
  Rec << "]\n}\n";
  std::string RecPath = O.ResultsDir + "/" + In.Workload + "-seed" +
                        std::to_string(O.Seed) + "-trace" +
                        (O.Trace ? "1" : "0") + ".json";
  if (FILE *F = std::fopen(RecPath.c_str(), "w")) {
    std::fputs(Rec.str().c_str(), F);
    std::fclose(F);
  }

  std::printf("{\"host\": %s, \"record\": \"%s\"}\n", Host.c_str(),
              jsonEscape(RecPath).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              metricsJson(Metrics).c_str());
  std::fflush(stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Self-test of the benchmark's own machinery.
//===----------------------------------------------------------------------===//

int selfTest() {
  Tally T;
  // Spans nest, children inside parents, self times never negative.
  recorder().clear();
  recorder().setEnabled(true);
  {
    ScopedSpan A("a", newPlanId());
    { ScopedSpan B("b"); }
    {
      ScopedSpan C("c");
      { ScopedSpan D("d"); }
    }
    std::thread Other([] { ScopedSpan E("e", newPlanId()); });
    Other.join();
  }
  recorder().setEnabled(false);
  std::vector<Span> Spans = recorder().snapshot();
  T.check(Spans.size() == 5, "five spans recorded");
  T.check(checkSpans(Spans).empty(), "recorded spans pass the span check");
  std::vector<double> Self = selfTimes(Spans);
  double Children = (Spans[1].EndS - Spans[1].StartS) +
                    (Spans[2].EndS - Spans[2].StartS);
  T.check(std::fabs(Self[0] - ((Spans[0].EndS - Spans[0].StartS) -
                               Children)) < 1e-12,
          "self time is the duration minus the children");
  T.check(Spans[1].Parent == 0 && Spans[3].Parent == 2 &&
              Spans[4].Parent == -1,
          "parents are the enclosing span on the same thread");
  T.check(Spans[3].PlanId == Spans[0].PlanId &&
              Spans[4].PlanId != Spans[0].PlanId,
          "children inherit the plan id");
  std::vector<Span> Bad = Spans;
  Bad[1].EndS = Bad[0].EndS + 1.0;
  T.check(!checkSpans(Bad).empty(), "a child outliving its parent is caught");
  recorder().clear();

  // A different seed changes the inputs; the same seed does not.
  for (const char *W : {"run_cold", "matrix_warm", "serve_mix"}) {
    T.check(makeInputs(W, 1).describe() == makeInputs(W, 1).describe(),
            std::string(W) + ": the same seed gives the same inputs");
    T.check(makeInputs(W, 1).describe() != makeInputs(W, 2).describe(),
            std::string(W) + ": another seed gives other inputs");
  }

  // Traced and untraced plans give byte-identical results.
  std::vector<PlanShape> Small = {
      {makeInputs("serve_mix", 1).Warmup.front(), false}};
  PassResult Plain = runLocalPass(Small, 2, "", "");
  recorder().setEnabled(true);
  PassResult Traced = runLocalPass(Small, 2, "", "");
  recorder().setEnabled(false);
  T.check(Plain.digest() == Traced.digest() && Plain.Sim == Traced.Sim,
          "traced and untraced plans give identical results");
  T.check(checkSpans(recorder().snapshot()).empty() &&
              recorder().snapshot().size() == 3,
          "a traced plan records plan, build and run spans");

  std::printf("hostbench self-test: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  return T.Failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --root DIR --work DIR --results DIR "
               "[--commit SHA]\n       hostbench --self-test\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  R.O.Jobs =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--self-test")
      return selfTest();
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    std::string V = Argv[++I];
    if (Arg == "--workload")
      R.O.Workload = V;
    else if (Arg == "--seed")
      R.O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      R.O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Arg == "--trace")
      R.O.Trace = V == "1";
    else if (Arg == "--root")
      R.O.Root = V;
    else if (Arg == "--work")
      R.O.WorkDir = V;
    else if (Arg == "--results")
      R.O.ResultsDir = V;
    else if (Arg == "--commit")
      R.Commit = V;
    else
      usage(("unknown argument " + Arg).c_str());
  }
  if (R.O.WorkDir.empty() || R.O.ResultsDir.empty())
    usage("--work and --results are required");
  try {
    R.In = makeInputs(R.O.Workload, R.O.Seed);
    removeTree(R.O.WorkDir);
    makeDirs(R.O.WorkDir);
    makeDirs(R.O.ResultsDir);
    R.setUp();
    R.load();
    R.checks();
    if (R.O.Trace)
      R.traceLayers();
    else
      R.endToEnd();
    R.Daemon.reset();
    int Rc = R.finish();
    removeTree(R.O.WorkDir);
    return Rc;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "hostbench: %s\n", E.what());
    return 1;
  }
}
