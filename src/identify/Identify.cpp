//===- identify/Identify.cpp - Selector construction (Fig. 10) --------------===//

#include "identify/Identify.h"

#include "support/BinaryIO.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace halo;

namespace {

/// Position (0 = outermost) of \p Site in \p Frames; chains retain only the
/// most recent instance of a pair, so the first hit is the position.
size_t stackPosition(const Context &Frames, CallSiteId Site) {
  for (size_t I = 0; I < Frames.size(); ++I)
    if (Frames[I].Site == Site)
      return I;
  return Frames.size();
}

} // namespace

IdentificationResult halo::identifyGroups(const std::vector<Group> &Groups,
                                          const ContextTable &Contexts) {
  // Map each context to its group index (or -1).
  std::vector<int32_t> GroupOf(Contexts.size(), -1);
  for (size_t G = 0; G < Groups.size(); ++G)
    for (GraphNodeId Member : Groups[G].Members) {
      assert(Member < Contexts.size() && "group member is not a context");
      GroupOf[Member] = static_cast<int32_t>(G);
    }

  IdentificationResult Result;
  std::vector<bool> Ignored(Groups.size() + 1, false);

  for (size_t G = 0; G < Groups.size(); ++G) {
    // ignore <- ignore + this group: members of the group under
    // construction (and of groups already identified) never conflict.
    Ignored[G] = true;

    Selector Sel;
    for (GraphNodeId Member : Groups[G].Members) {
      const ContextInfo &MemberInfo = Contexts.info(Member);

      Conjunction Expr;
      // Conflicting contexts: not in any ignored group, matching the (still
      // empty, hence universal) expression so far.
      std::vector<ContextId> Conflicting;
      for (ContextId C = 0; C < Contexts.size(); ++C) {
        int32_t CG = GroupOf[C];
        if (CG >= 0 && Ignored[CG])
          continue;
        Conflicting.push_back(C);
      }

      uint64_t Conflicts = std::numeric_limits<uint64_t>::max();
      while (Conflicts != 0) {
        // Count, for every site of the member's chain, how many conflicting
        // chains contain it.
        CallSiteId BestSite = InvalidId;
        uint64_t BestCount = std::numeric_limits<uint64_t>::max();
        size_t BestPos = 0;
        for (CallSiteId Site : MemberInfo.Chain) {
          if (std::find(Expr.Sites.begin(), Expr.Sites.end(), Site) !=
              Expr.Sites.end())
            continue;
          uint64_t Count = 0;
          for (ContextId C : Conflicting)
            if (Contexts.info(C).chainContains(Site))
              ++Count;
          size_t Pos = stackPosition(MemberInfo.Frames, Site);
          // argmin by count; ties prefer the site lower in the stack
          // (outermost), which is crossed least often at runtime.
          if (Count < BestCount || (Count == BestCount && Pos < BestPos)) {
            BestSite = Site;
            BestCount = Count;
            BestPos = Pos;
          }
        }
        if (BestSite == InvalidId)
          break; // Chain exhausted.
        // Add the new constraint only if it reduces conflicts.
        if (BestCount == Conflicts)
          break;
        Expr.Sites.push_back(BestSite);
        Conflicts = BestCount;
        // Narrow the conflict set to chains matching the new constraint.
        std::vector<ContextId> Narrowed;
        for (ContextId C : Conflicting)
          if (Contexts.info(C).chainContains(BestSite))
            Narrowed.push_back(C);
        Conflicting = std::move(Narrowed);
      }

      std::sort(Expr.Sites.begin(), Expr.Sites.end());
      Sel.Terms.push_back(std::move(Expr));
    }
    Result.Selectors.push_back(std::move(Sel));
  }

  // Union of sites, in deterministic first-use order across selectors.
  std::vector<bool> SeenSite;
  for (const Selector &Sel : Result.Selectors)
    for (const Conjunction &Term : Sel.Terms)
      for (CallSiteId Site : Term.Sites) {
        if (Site >= SeenSite.size())
          SeenSite.resize(Site + 1, false);
        if (!SeenSite[Site]) {
          SeenSite[Site] = true;
          Result.Sites.push_back(Site);
        }
      }
  return Result;
}

void halo::saveIdentification(const IdentificationResult &Result,
                              BinaryWriter &W) {
  W.varint(Result.Selectors.size());
  for (const Selector &Sel : Result.Selectors) {
    W.varint(Sel.Terms.size());
    for (const Conjunction &Term : Sel.Terms) {
      W.varint(Term.Sites.size());
      for (CallSiteId Site : Term.Sites)
        W.varint(Site);
    }
  }
  W.varint(Result.Sites.size());
  for (CallSiteId Site : Result.Sites)
    W.varint(Site);
}

namespace {

CallSiteId readSiteId(BinaryReader &R, const char *What) {
  uint64_t Site = R.varint();
  if (Site > UINT32_MAX)
    throw SerializationError(std::string(What) + ": site id out of range");
  return static_cast<CallSiteId>(Site);
}

} // namespace

IdentificationResult halo::loadIdentification(BinaryReader &R) {
  IdentificationResult Result;
  uint64_t NumSelectors = R.count(1);
  Result.Selectors.reserve(static_cast<size_t>(NumSelectors));
  for (uint64_t I = 0; I < NumSelectors; ++I) {
    Selector Sel;
    uint64_t NumTerms = R.count(1);
    Sel.Terms.reserve(static_cast<size_t>(NumTerms));
    for (uint64_t J = 0; J < NumTerms; ++J) {
      Conjunction Term;
      uint64_t NumSites = R.count(1);
      Term.Sites.reserve(static_cast<size_t>(NumSites));
      for (uint64_t K = 0; K < NumSites; ++K)
        Term.Sites.push_back(readSiteId(R, "identification selector"));
      Sel.Terms.push_back(std::move(Term));
    }
    Result.Selectors.push_back(std::move(Sel));
  }
  uint64_t NumSites = R.count(1);
  Result.Sites.reserve(static_cast<size_t>(NumSites));
  for (uint64_t I = 0; I < NumSites; ++I)
    Result.Sites.push_back(readSiteId(R, "identification sites"));
  return Result;
}
