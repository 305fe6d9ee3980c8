//===- group/Grouping.h - Context grouping (Fig. 6-8) ----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grouping stage of Section 4.2: a greedy algorithm that repeatedly
/// grows tight-knit clusters around the strongest remaining edges of the
/// affinity graph, guided by the loop-aware weighted-density score
/// (Figure 7) and the merge-benefit function m(A,B) = Sc - (1-T) max(Sa,Sb)
/// (Figure 8). The paper finds these clusters more amenable to region-based
/// co-allocation than modularity, HCS, or cut-based clustering;
/// bench/ablation_grouping compares against such baselines.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_GROUP_GROUPING_H
#define HALO_GROUP_GROUPING_H

#include "graph/AffinityGraph.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace halo {

/// Tuning knobs of Figure 6 plus the artefact's --max-groups flag.
// (BinaryWriter/BinaryReader come in via graph/AffinityGraph.h's forward
// declarations; saveGroups/loadGroups below use them.)
struct GroupingOptions {
  /// Edges lighter than this are dropped before grouping (args.min_weight).
  uint64_t MinEdgeWeight = 2;
  /// Merge tolerance T; "performs well at around 5%".
  double MergeTolerance = 0.05;
  /// A finished group is kept only if its internal weight reaches
  /// gthresh * graph.accesses.
  double GroupWeightThreshold = 0.005;
  /// args.max_group_members.
  uint32_t MaxGroupMembers = 16;
  /// Upper bound on emitted groups (the artefact passes --max-groups 4 for
  /// roms); 0 means unlimited.
  uint32_t MaxGroups = 0;
};

/// One allocation-context group.
struct Group {
  std::vector<GraphNodeId> Members;
  uint64_t Weight = 0;     ///< Internal edge weight.
  uint64_t Accesses = 0;   ///< Sum of member access counts (popularity).
};

/// The merge benefit of adding \p Candidate to \p Members (Figure 8).
double mergeBenefit(const AffinityGraph &Graph,
                    const std::vector<GraphNodeId> &Members,
                    GraphNodeId Candidate, double Tolerance);

/// Runs the Figure 6 grouping algorithm over \p Graph (which it copies so
/// edge thresholding does not disturb the caller's graph). Groups are
/// returned sorted by popularity (most accessed first), which is the order
/// identification processes them in.
///
/// This is the incremental implementation: a one-time weight-sorted edge
/// list with a forward-only availability sweep replaces the per-group edge
/// rescan, and merge benefits are computed from running group aggregates
/// plus each candidate's accumulated weight into the group (O(deg) via the
/// CSR snapshot) instead of rescoring the union. Output is bit-identical
/// to buildGroupsReference; bench/bench_grouping_scale measures the gap.
std::vector<Group> buildGroups(const AffinityGraph &Graph,
                               const GroupingOptions &Options);

/// The direct transliteration of Figure 6 (rescans all edges per group and
/// rescores the whole union per merge candidate). Kept as the semantic
/// reference: tests assert buildGroups produces identical output, and the
/// scale bench reports the speedup against it.
std::vector<Group> buildGroupsReference(const AffinityGraph &Graph,
                                        const GroupingOptions &Options);

/// Naive comparison clusterer for the ablation bench: connected components
/// of the thresholded graph, split to MaxGroupMembers in id order. Roughly
/// what a cut-based scheme with no density objective produces.
std::vector<Group> buildComponentGroups(const AffinityGraph &Graph,
                                        const GroupingOptions &Options);

/// Serializes \p Groups (members, weight, popularity) preserving order --
/// the popularity order identification depends on survives a round trip.
void saveGroups(const std::vector<Group> &Groups, BinaryWriter &W);

/// Decodes a saveGroups() stream; throws SerializationError on truncation
/// or out-of-range member ids.
std::vector<Group> loadGroups(BinaryReader &R);

} // namespace halo

#endif // HALO_GROUP_GROUPING_H
