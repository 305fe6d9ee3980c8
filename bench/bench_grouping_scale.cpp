//===- bench/bench_grouping_scale.cpp - Pipeline scale bench -------------------===//
//
// Measures the profile->graph->group pipeline on synthetic affinity graphs
// far larger than the paper's workloads produce (10k-100k nodes, power-law
// degree and weight distributions), comparing the incremental buildGroups
// against the Figure 6 reference transliteration and timing the supporting
// hot paths (CSR snapshot construction, affinity-queue pushes, live-object
// lookups).
//
// Emits a machine-readable trajectory file (default: BENCH_pipeline.json,
// override with argv[1]) as a JSON array of rows
//   {"bench": ..., "nodes": ..., "edges": ..., "wall_ms": ..., "trials": ...}
// so subsequent PRs can track the perf trend. wall_ms is the median across
// trials (HALO_BENCH_TRIALS overrides the trial count).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Adjacency.h"
#include "group/Grouping.h"
#include "profile/AffinityQueue.h"
#include "profile/LiveObjectMap.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace halo;

namespace {

struct BenchRow {
  std::string Bench;
  uint64_t Nodes;
  uint64_t Edges;
  double WallMs;
  int Trials;
};

int trials() {
  if (const char *Env = std::getenv("HALO_BENCH_TRIALS"))
    return std::max(1, std::atoi(Env));
  return 3;
}

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Runs \p Fn \p Trials times and returns the median wall-clock ms.
template <typename Fn> double medianMs(int Trials, Fn &&Run) {
  std::vector<double> Times;
  Times.reserve(Trials);
  for (int T = 0; T < Trials; ++T) {
    double Start = nowMs();
    Run();
    Times.push_back(nowMs() - Start);
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// A synthetic affinity graph with power-law structure: hub nodes attract
/// most edges (preferential attachment to low ids), access counts and edge
/// weights follow heavy-tailed distributions, and a small fraction of nodes
/// carry loop edges (two objects of one context accessed contemporaneously).
AffinityGraph powerLawGraph(uint32_t Nodes, uint64_t Seed) {
  Rng Random(Seed);
  AffinityGraph G;
  for (uint32_t Node = 0; Node < Nodes; ++Node) {
    uint64_t Accesses =
        1 + static_cast<uint64_t>(std::pow(Random.nextDouble() + 1e-9, -0.7));
    G.addAccesses(Node, std::min<uint64_t>(Accesses, 100000));

    uint32_t Degree =
        1 + static_cast<uint32_t>(std::pow(Random.nextDouble() + 1e-9, -0.6));
    Degree = std::min(Degree, 40u);
    for (uint32_t E = 0; E < Degree; ++E) {
      // Preferential attachment: quadratic bias toward low (hub) ids.
      double R = Random.nextDouble();
      uint32_t Target = static_cast<uint32_t>(R * R * Nodes);
      if (Target >= Nodes)
        Target = Nodes - 1;
      if (Target == Node)
        continue;
      uint64_t Weight = 2 + Random.nextBelow(64);
      G.addEdgeWeight(Node, Target, Weight);
    }
    // Loop edges concentrate on a bounded set of hot contexts rather than
    // growing with graph size.
    if (Random.nextBool(std::min(0.02, 200.0 / Nodes)))
      G.addEdgeWeight(Node, Node, 2 + Random.nextBelow(32));
  }
  return G;
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

/// Renders the rows and hands them to the shared writer (fresh write: this
/// bench owns BENCH_pipeline.json's array; bench_replay appends after).
void writeJson(const std::string &Path, const std::vector<BenchRow> &Rows) {
  std::vector<std::string> Lines;
  Lines.reserve(Rows.size());
  for (const BenchRow &R : Rows) {
    char Line[256];
    int N = std::snprintf(
        Line, sizeof(Line),
        "  {\"bench\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
        "\"wall_ms\": %.3f, \"trials\": %d}",
        R.Bench.c_str(), static_cast<unsigned long long>(R.Nodes),
        static_cast<unsigned long long>(R.Edges), R.WallMs, R.Trials);
    if (N < 0 || N >= static_cast<int>(sizeof(Line))) {
      std::fprintf(stderr, "bench row for %s too long\n", R.Bench.c_str());
      std::exit(1);
    }
    Lines.push_back(Line);
  }
  bench::writeJsonRows(Path, Lines, /*Append=*/false);
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string OutPath = Argc > 1 ? Argv[1] : "BENCH_pipeline.json";
  // Fail on an unwritable output path now, not after minutes of benching.
  if (FILE *Probe = std::fopen(OutPath.c_str(), "a"))
    std::fclose(Probe);
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  const int Trials = trials();
  std::vector<BenchRow> Rows;

  GroupingOptions Options;
  Options.MinEdgeWeight = 4;
  Options.GroupWeightThreshold = 0.0005;
  Options.MaxGroupMembers = 8;

  std::printf("pipeline scale bench (trials=%d)\n\n", Trials);

  //===--------------------------------------------------------------------===//
  // Grouping: reference vs incremental on the 10k-node graph, incremental
  // alone on larger graphs (the reference is too slow beyond 10k).
  //===--------------------------------------------------------------------===//

  {
    const uint32_t N = 10000;
    AffinityGraph G = powerLawGraph(N, 42);
    std::vector<Group> Ref, Opt;
    double RefMs =
        medianMs(1, [&] { Ref = buildGroupsReference(G, Options); });
    double OptMs = medianMs(Trials, [&] { Opt = buildGroups(G, Options); });
    if (!sameGroups(Ref, Opt)) {
      std::fprintf(stderr,
                   "FATAL: optimized grouping diverged from reference\n");
      return 1;
    }
    Rows.push_back({"grouping_reference", N, G.numEdges(), RefMs, 1});
    Rows.push_back({"grouping_optimized", N, G.numEdges(), OptMs, Trials});
    std::printf("grouping %6u nodes %7llu edges: reference %10.1f ms, "
                "optimized %8.2f ms  (%.0fx, %zu groups, outputs identical)\n",
                N, static_cast<unsigned long long>(G.numEdges()), RefMs, OptMs,
                RefMs / std::max(OptMs, 1e-6), Opt.size());
  }

  for (uint32_t N : {30000u, 100000u}) {
    AffinityGraph G = powerLawGraph(N, 42 + N);
    // The absolute weight threshold scales with total accesses; zero it so
    // the larger graphs still exercise the group-keeping path.
    GroupingOptions ScaleOptions = Options;
    ScaleOptions.GroupWeightThreshold = 0.0;
    std::vector<Group> Opt;
    double OptMs =
        medianMs(Trials, [&] { Opt = buildGroups(G, ScaleOptions); });
    Rows.push_back({"grouping_optimized", N, G.numEdges(), OptMs, Trials});
    std::printf("grouping %6u nodes %7llu edges: optimized %8.2f ms "
                "(%zu groups)\n",
                N, static_cast<unsigned long long>(G.numEdges()), OptMs,
                Opt.size());
  }

  //===--------------------------------------------------------------------===//
  // Graph layer: CSR snapshot construction at 100k nodes.
  //===--------------------------------------------------------------------===//

  {
    const uint32_t N = 100000;
    AffinityGraph G = powerLawGraph(N, 7);
    uint64_t Neighbors = 0;
    double Ms = medianMs(Trials, [&] {
      AdjacencySnapshot Adj = G.buildAdjacency();
      Neighbors += Adj.numNodes(); // Defeat dead-code elimination.
    });
    Rows.push_back({"graph_build_adjacency", N, G.numEdges(), Ms, Trials});
    std::printf("buildAdjacency %u nodes %llu edges: %.2f ms\n", N,
                static_cast<unsigned long long>(G.numEdges()), Ms);
    if (Neighbors == 0)
      return 1;
  }

  //===--------------------------------------------------------------------===//
  // Profiler layer: affinity-queue pushes (the per-access hot path) and
  // live-object lookups.
  //===--------------------------------------------------------------------===//

  {
    const uint32_t Objects = 4096;
    const uint64_t Accesses = 2000000;
    Rng Random(1234);
    std::vector<uint32_t> Stream(Accesses);
    for (uint64_t I = 0; I < Accesses; ++I)
      Stream[I] = static_cast<uint32_t>(Random.nextBelow(Objects));
    uint64_t Partners = 0;
    double Ms = medianMs(Trials, [&] {
      AffinityQueue Queue(128);
      for (uint64_t I = 0; I < Accesses; ++I)
        Queue.access(Stream[I], Stream[I] & 63, I, 8,
                     [&](const AffinityQueue::Entry &) { ++Partners; });
    });
    Rows.push_back({"affinity_queue_access", Objects, Accesses, Ms, Trials});
    std::printf("affinity queue: %llu accesses over %u objects: %.2f ms "
                "(%.1f M access/s)\n",
                static_cast<unsigned long long>(Accesses), Objects, Ms,
                static_cast<double>(Accesses) / Ms / 1e3);
    if (Partners == 0)
      return 1;
  }

  {
    const uint32_t Objects = 100000;
    const uint64_t Lookups = 2000000;
    LiveObjectMap Map;
    for (uint32_t I = 0; I < Objects; ++I)
      Map.insert(4096 + uint64_t(I) * 64, 48, I & 255, 0);
    Rng Random(99);
    std::vector<uint64_t> Addrs(Lookups);
    for (uint64_t I = 0; I < Lookups;) {
      // Bursts of hits on one object model real access locality (the same
      // locality the affinity queue's dedup constraint exists for).
      uint64_t Base = 4096 + Random.nextBelow(Objects) * 64;
      uint64_t Burst = 1 + Random.nextBelow(16);
      for (uint64_t B = 0; B < Burst && I < Lookups; ++B, ++I)
        Addrs[I] = Base + Random.nextBelow(48);
    }
    uint64_t Hits = 0;
    double Ms = medianMs(Trials, [&] {
      for (uint64_t I = 0; I < Lookups; ++I)
        Hits += Map.find(Addrs[I]) != ~0u;
    });
    Rows.push_back({"live_object_find", Objects, Lookups, Ms, Trials});
    std::printf("live-object map: %llu lookups over %u objects: %.2f ms\n",
                static_cast<unsigned long long>(Lookups), Objects, Ms);
    if (Hits == 0)
      return 1;
  }

  writeJson(OutPath, Rows);
  std::printf("\nwrote %s (%zu rows)\n", OutPath.c_str(), Rows.size());
  return 0;
}
