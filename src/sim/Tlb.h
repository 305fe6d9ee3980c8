//===- sim/Tlb.h - Data TLB model ------------------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small set-associative data TLB. Size-segregated allocators can scatter
/// related objects across pages, generating TLB misses (Section 2.1 [35]);
/// HALO's grouped layout also condenses the page working set.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_TLB_H
#define HALO_SIM_TLB_H

#include "sim/Cache.h"

namespace halo {

/// Data TLB modelled as a set-associative cache of page translations.
class Tlb {
public:
  /// Default geometry: 64 entries, 4-way, 4 KiB pages.
  explicit Tlb(uint32_t Entries = 64, uint32_t Ways = 4,
               uint32_t PageSize = 4096);

  /// Translates the page containing \p Addr; returns true on TLB hit.
  bool access(uint64_t Addr) { return Entries.access(Addr); }

  /// Most-recently-used-entry probe for the fused TLB+L1 fast path: commits
  /// the translation on hit, touches nothing on miss (finish with
  /// accessSlow()).
  bool mruHit(uint64_t Addr) { return Entries.mruHit(Addr); }

  /// Completes a translation whose mruHit() probe missed.
  bool accessSlow(uint64_t Addr) { return Entries.accessSlow(Addr); }

  uint64_t hits() const { return Entries.hits(); }
  uint64_t misses() const { return Entries.misses(); }
  void reset() { Entries.reset(); }

private:
  Cache Entries;
};

} // namespace halo

#endif // HALO_SIM_TLB_H
