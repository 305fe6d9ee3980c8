//===- sim/Cache.h - Set-associative cache model ---------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, write-allocate cache model. The evaluation's
/// memory hierarchy (sim/MemoryHierarchy.h) stacks three of these with the
/// geometry of a named machine preset (sim/Machine.h); the default is the
/// paper's Xeon W-2195 (32 KiB L1D, 1 MiB L2, 24.75 MiB L3).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_CACHE_H
#define HALO_SIM_CACHE_H

#include "support/Bits.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace halo {

/// Geometry of one cache level. A plain value type with nothing heap-owned
/// in it: Cache objects live on the simulator's hottest path, and level
/// names belong to the machine presets (sim/Machine.h), not in here.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t Ways = 8;
  uint32_t LineSize = 64;
};

/// One level of set-associative cache with true-LRU replacement.
///
/// Per-way metadata is packed into one flat array of 16-byte slots sized
/// from the config (tag + LRU clock, no valid flag, no name), so a slot is
/// a power-of-two stride, an MRU hit touches a single host cache line, and
/// a set scan spans a third fewer lines than the old 24-byte Way struct.
class Cache {
public:
  explicit Cache(const CacheConfig &Config);

  /// Looks up the line containing \p Addr, inserting it on a miss (evicting
  /// the LRU way). Returns true on hit. Repeat hits on the most-recently-hit
  /// way dominate; one compare settles them without the scan.
  ///
  /// Defined inline (like the whole lookup path) so the simulator's per-
  /// access work fuses into MemoryHierarchy's loops: an out-of-line call
  /// per way scan measurably dominates the scan itself.
  bool access(uint64_t Addr) { return mruHit(Addr) || accessSlow(Addr); }

  /// Fast-path-only probe of the most-recently-hit way: commits the access
  /// (hit counter, LRU clock) when it matches and returns true; on mismatch
  /// touches nothing and returns false, in which case the caller must finish
  /// the access with accessSlow(). MemoryHierarchy fuses the TLB and L1
  /// probes on its single-line fast path through this.
  ///
  /// The probe compares against MruTag -- a compact per-set copy of the MRU
  /// way's tag -- rather than the slot itself: the hit/miss decision then
  /// hangs off one independent load instead of the Mru[Set] -> slot chain
  /// (two levels' probes can overlap), and a mismatch never touches the
  /// slot array at all. The slot is only written on the hit side, off the
  /// critical path.
  bool mruHit(uint64_t Addr) {
    auto [Set, Tag] = locate(Addr);
    if (MruTag[Set] == Tag) {
      Slots[uint64_t(Set) * Config.Ways + Mru[Set]].Use = ++Clock;
      ++Hits;
      return true;
    }
    return false;
  }

  /// Completes an access whose mruHit() probe returned false: the full way
  /// scan without re-probing the MRU hint. access(Addr) is equivalent to
  /// `mruHit(Addr) || accessSlow(Addr)`.
  bool accessSlow(uint64_t Addr) {
    auto [Set, Tag] = locate(Addr);
    return scanInsert(Set, Tag);
  }

  /// Hints the host CPU to pull the set metadata \p Addr maps to into its
  /// own caches. Semantics-free (no counter, clock, or content changes):
  /// purely a host-side latency hint, used by the batched access path to
  /// overlap upcoming set walks with current ones -- the large levels' slot
  /// arrays (megabytes for an L3) are what the simulator itself stalls on.
  void prefetchSet(uint64_t Addr) const {
#if defined(__GNUC__) || defined(__clang__)
    auto [Set, Tag] = locate(Addr);
    (void)Tag;
    const Slot *S = &Slots[uint64_t(Set) * Config.Ways];
    __builtin_prefetch(S);
    if (Config.Ways > 4) // A set spanning several host lines: pull two.
      __builtin_prefetch(reinterpret_cast<const char *>(S) + 64);
#else
    (void)Addr;
#endif
  }

  /// Returns true if the line containing \p Addr is currently cached,
  /// without updating replacement state (for tests).
  bool contains(uint64_t Addr) const;

  /// Drops all cached lines and resets statistics.
  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t accesses() const { return Hits + Misses; }
  double missRate() const {
    return accesses() ? static_cast<double>(Misses) / accesses() : 0.0;
  }

  const CacheConfig &config() const { return Config; }
  uint32_t numSets() const { return Sets; }

private:
  /// Seeds empty slots with their unique per-set clocks and floors the
  /// global clock above them (constructor and reset()).
  void initEmptyClocks();

  /// One way's packed metadata: a power-of-two stride (the old Way struct
  /// was 24 bytes with a padding-swollen valid flag).
  struct Slot {
    uint64_t Tag;
    uint64_t Use; ///< LRU clock. Empty slots hold their way index (unique,
                  ///< below every live clock: the global clock starts at
                  ///< Ways), so victim tracking never ties and empty sets
                  ///< still fill in index order -- decisions bit-identical
                  ///< to the old all-zeros scheme.
  };

  /// Empty-slot tag marker. No simulated address reaches it: a real tag of
  /// ~0 would need an address within a line span of 2^64.
  static constexpr uint64_t InvalidTag = ~0ull;

  /// Set index and tag of \p Addr. Divisions on the per-access path are
  /// precomputed away: power-of-two set counts reduce to shifts, and the
  /// rest (e.g. the W-2195 L3's 36864 = 2^12 * 9 sets) shift out their
  /// power-of-two factor and divide by the small odd cofactor through a
  /// reciprocal multiply -- quotients bit-identical to the hardware
  /// divide, at a fraction of its latency on a path L3 lookups hit twice.
  std::pair<uint32_t, uint64_t> locate(uint64_t Addr) const {
    uint64_t Line = Addr >> LineShift;
    if (SetShift >= 0)
      return {static_cast<uint32_t>(Line & (Sets - 1)), Line >> SetShift};
    uint64_t Tag = OddDiv.divide(Line >> SetP2Shift); // == Line / Sets.
    return {static_cast<uint32_t>(Line - Tag * Sets), Tag};
  }

  /// Full way scan after an MRU mismatch: hit anywhere in the set, or evict
  /// the LRU way (empty slots hold unique clocks below every live clock --
  /// see the constructor -- so they lose every LRU comparison and fill in
  /// index order). One pass finds both a hit and the LRU victim (a separate
  /// min-scan pass measured ~2x slower end to end). With all use clocks
  /// unique the min-tracking never ties, so the victim update is written as
  /// two selects (no branch to predict) instead of a compare-and-branch.
  bool scanInsert(uint32_t Set, uint64_t Tag) {
    assert(Tag != InvalidTag && "address saturates the tag space");
    ++Clock;
    Slot *Begin = &Slots[uint64_t(Set) * Config.Ways];
    Slot *const End = Begin + Config.Ways;
    Slot *Victim = Begin;
    uint64_t VictimUse = Begin->Use;
    for (Slot *S = Begin; S != End; ++S) {
      if (S->Tag == Tag) {
        S->Use = Clock;
        ++Hits;
        Mru[Set] = static_cast<uint8_t>(S - Begin);
        MruTag[Set] = Tag;
        return true;
      }
      uint64_t Use = S->Use;
      bool Older = Use < VictimUse;
      Victim = Older ? S : Victim;
      VictimUse = Older ? Use : VictimUse;
    }
    ++Misses;
    Victim->Tag = Tag;
    Victim->Use = Clock;
    Mru[Set] = static_cast<uint8_t>(Victim - Begin);
    MruTag[Set] = Tag;
    return false;
  }

  CacheConfig Config;
  uint32_t Sets;
  uint32_t LineShift = 0; ///< log2(LineSize).
  int32_t SetShift = -1;  ///< log2(Sets), or -1 if Sets is not a power of 2.
  uint32_t SetP2Shift = 0; ///< Trailing zero count of a non-p2 set count.
  MagicDivider OddDiv;     ///< Divides by Sets >> SetP2Shift (odd).
  std::vector<Slot> Slots; ///< Sets * Ways slots, set-major.
  /// Most-recently-hit way per set: a pure lookup hint (no effect on
  /// hit/miss/LRU outcomes) that turns the common repeat-hit into a single
  /// compare instead of a way scan.
  std::vector<uint8_t> Mru;
  /// The MRU way's tag, by set -- a sidecar of Slots kept in lockstep
  /// wherever Mru changes or the MRU way's tag does. Same hint, laid out
  /// so the probe's compare needs no dependent slot lookup.
  std::vector<uint64_t> MruTag;
  uint64_t Clock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace halo

#endif // HALO_SIM_CACHE_H
