//===- tests/grouping_equivalence_test.cpp - Incremental == reference ----------===//
//
// Property-style equivalence: the incremental buildGroups must produce
// *identical* output (members, order, weights, accesses) to the Figure 6
// reference transliteration on randomized graphs across densities, loop
// fractions, weight ranges, and every grouping knob. Any divergence in
// tie-breaking, float rounding, or candidate enumeration shows up here.
//
//===----------------------------------------------------------------------===//

#include "group/Grouping.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace halo;

namespace {

struct GraphParams {
  uint32_t Nodes;
  double EdgeProbability; ///< Per candidate pair.
  double LoopProbability; ///< Per node.
  uint64_t MaxWeight;
  bool SparseIds; ///< Spread node ids out (non-contiguous numbering).
};

AffinityGraph randomGraph(const GraphParams &P, uint64_t Seed) {
  Rng Random(Seed);
  AffinityGraph G;
  auto idOf = [&](uint32_t N) {
    return P.SparseIds ? N * 37 + 5 : N;
  };
  for (uint32_t N = 0; N < P.Nodes; ++N) {
    if (Random.nextBool(0.9)) // Some nodes exist only via their edges.
      G.addAccesses(idOf(N), 1 + Random.nextBelow(1000));
    if (Random.nextBool(P.LoopProbability))
      G.addEdgeWeight(idOf(N), idOf(N), 1 + Random.nextBelow(P.MaxWeight));
  }
  for (uint32_t U = 0; U < P.Nodes; ++U)
    for (uint32_t V = U + 1; V < P.Nodes; ++V)
      if (Random.nextBool(P.EdgeProbability))
        G.addEdgeWeight(idOf(U), idOf(V), 1 + Random.nextBelow(P.MaxWeight));
  return G;
}

void expectSameGroups(const std::vector<Group> &Ref,
                      const std::vector<Group> &Opt,
                      const std::string &What) {
  ASSERT_EQ(Ref.size(), Opt.size()) << What;
  for (size_t I = 0; I < Ref.size(); ++I) {
    EXPECT_EQ(Ref[I].Members, Opt[I].Members) << What << " group " << I;
    EXPECT_EQ(Ref[I].Weight, Opt[I].Weight) << What << " group " << I;
    EXPECT_EQ(Ref[I].Accesses, Opt[I].Accesses) << What << " group " << I;
  }
}

void expectIdentical(const AffinityGraph &G, const GroupingOptions &Options,
                     const std::string &What) {
  std::vector<Group> Ref = buildGroupsReference(G, Options);
  expectSameGroups(Ref, buildGroups(G, Options), What);
}

GroupingOptions lenientOptions() {
  GroupingOptions O;
  O.MinEdgeWeight = 1;
  O.GroupWeightThreshold = 0.0;
  return O;
}

} // namespace

TEST(GroupingEquivalence, EmptyAndTinyGraphs) {
  GroupingOptions O = lenientOptions();
  expectIdentical(AffinityGraph{}, O, "empty");

  AffinityGraph Single;
  Single.addAccesses(3, 10);
  expectIdentical(Single, O, "single node, no edges");

  AffinityGraph LoopOnly;
  LoopOnly.addEdgeWeight(5, 5, 9);
  expectIdentical(LoopOnly, O, "single node, loop only");

  AffinityGraph Pair;
  Pair.addAccesses(1, 4);
  Pair.addAccesses(2, 6);
  Pair.addEdgeWeight(1, 2, 3);
  expectIdentical(Pair, O, "one pair");
}

TEST(GroupingEquivalence, RandomizedSweep) {
  const GraphParams Sweep[] = {
      {8, 0.5, 0.2, 10, false},   {20, 0.3, 0.1, 50, false},
      {20, 0.9, 0.5, 5, true},    {40, 0.1, 0.05, 100, false},
      {60, 0.05, 0.0, 1000, true}, {60, 0.2, 0.3, 3, false},
      {120, 0.03, 0.1, 40, false},
  };
  GroupingOptions O = lenientOptions();
  for (const GraphParams &P : Sweep)
    for (uint64_t Seed = 1; Seed <= 8; ++Seed)
      expectIdentical(randomGraph(P, Seed),
                      O,
                      "nodes=" + std::to_string(P.Nodes) +
                          " seed=" + std::to_string(Seed));
}

TEST(GroupingEquivalence, ToleranceSweep) {
  const GraphParams P{30, 0.25, 0.2, 20, false};
  for (double Tolerance : {0.0, 0.02, 0.05, 0.3, 0.9}) {
    GroupingOptions O = lenientOptions();
    O.MergeTolerance = Tolerance;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      expectIdentical(randomGraph(P, Seed * 13), O,
                      "tolerance=" + std::to_string(Tolerance) +
                          " seed=" + std::to_string(Seed));
  }
}

TEST(GroupingEquivalence, MemberLimitSweep) {
  const GraphParams P{40, 0.3, 0.15, 30, false};
  for (uint32_t MaxMembers : {1u, 2u, 3u, 7u, 16u, 1000u}) {
    GroupingOptions O = lenientOptions();
    O.MaxGroupMembers = MaxMembers;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      expectIdentical(randomGraph(P, Seed * 101), O,
                      "maxMembers=" + std::to_string(MaxMembers) +
                          " seed=" + std::to_string(Seed));
  }
}

TEST(GroupingEquivalence, ThresholdSweep) {
  const GraphParams P{40, 0.2, 0.1, 25, true};
  for (uint64_t MinEdge : {1ull, 3ull, 10ull, 100ull}) {
    for (double GroupThreshold : {0.0, 0.001, 0.02, 0.5}) {
      GroupingOptions O = lenientOptions();
      O.MinEdgeWeight = MinEdge;
      O.GroupWeightThreshold = GroupThreshold;
      for (uint64_t Seed = 1; Seed <= 4; ++Seed)
        expectIdentical(randomGraph(P, Seed * 7 + MinEdge), O,
                        "minEdge=" + std::to_string(MinEdge) + " gthresh=" +
                            std::to_string(GroupThreshold) +
                            " seed=" + std::to_string(Seed));
    }
  }
}

TEST(GroupingEquivalence, MaxGroupsSweep) {
  const GraphParams P{50, 0.15, 0.1, 60, false};
  for (uint32_t MaxGroups : {0u, 1u, 3u, 100u}) {
    GroupingOptions O = lenientOptions();
    O.MaxGroups = MaxGroups;
    for (uint64_t Seed = 1; Seed <= 4; ++Seed)
      expectIdentical(randomGraph(P, Seed * 29), O,
                      "maxGroups=" + std::to_string(MaxGroups) +
                          " seed=" + std::to_string(Seed));
  }
}

TEST(GroupingEquivalence, PaperDefaultOptions) {
  // The defaults the pipeline actually runs with (min weight 2, 5%
  // tolerance, 0.5% group threshold, 16 members).
  GroupingOptions Defaults;
  const GraphParams Sweep[] = {
      {30, 0.3, 0.2, 40, false},
      {80, 0.08, 0.1, 200, true},
      {150, 0.02, 0.05, 30, false},
  };
  for (const GraphParams &P : Sweep)
    for (uint64_t Seed = 1; Seed <= 6; ++Seed)
      expectIdentical(randomGraph(P, Seed * 991), Defaults,
                      "defaults nodes=" + std::to_string(P.Nodes) +
                          " seed=" + std::to_string(Seed));
}

TEST(GroupingEquivalence, DisconnectedCandidatesWithHeavyLoops) {
  // A group seed next to unconnected nodes carrying heavy loop edges: the
  // reference considers *every* available node as a merge candidate, so the
  // incremental path's candidate pruning must still see loop-carrying
  // strangers (class b) and the no-edge/no-loop representative (class c).
  AffinityGraph G;
  G.addAccesses(1, 100);
  G.addAccesses(2, 90);
  G.addEdgeWeight(1, 2, 50);
  G.addEdgeWeight(7, 7, 500); // Heavy loop, no edges to the group.
  G.addEdgeWeight(8, 8, 2);   // Light loop.
  G.addAccesses(9, 80);       // No edges, no loop.
  G.addAccesses(10, 70);      // No edges, no loop.
  for (double Tolerance : {0.0, 0.05, 0.5, 0.99}) {
    GroupingOptions O = lenientOptions();
    O.MergeTolerance = Tolerance;
    expectIdentical(G, O, "tolerance=" + std::to_string(Tolerance));
  }
}

TEST(GroupingEquivalence, TieBreakOnEqualWeightEdges) {
  // Many equal-weight edges: the seed edge must be the first in (U, V)
  // order among the maxima, in both implementations.
  AffinityGraph G;
  for (GraphNodeId N = 0; N < 12; N += 2) {
    G.addAccesses(N, 10);
    G.addAccesses(N + 1, 10);
    G.addEdgeWeight(N, N + 1, 7);
  }
  expectIdentical(G, lenientOptions(), "equal-weight components");

  // Equal node accesses: the seed must be the U endpoint in both.
  AffinityGraph H;
  H.addAccesses(4, 10);
  H.addAccesses(5, 10);
  H.addEdgeWeight(4, 5, 3);
  GroupingOptions O = lenientOptions();
  O.MaxGroupMembers = 1;
  expectIdentical(H, O, "equal-access seed tie");
}
