//===- sim/MemoryHierarchy.h - L1D/L2/L3 + TLB stack -----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three cache levels plus a data TLB with a simple latency model. The
/// geometry comes from a HierarchyConfig — usually one bundled in a machine
/// preset (sim/Machine.h); the default matches the paper's evaluation
/// machine (Intel Xeon W-2195): 32 KiB per-core L1D, 1024 KiB per-core L2,
/// 25344 KiB shared L3. Workloads are single-threaded, as in the paper, so
/// no coherence is modelled.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_MEMORYHIERARCHY_H
#define HALO_SIM_MEMORYHIERARCHY_H

#include "sim/Cache.h"
#include "sim/Tlb.h"

#include <cstddef>
#include <cstdint>

namespace halo {

/// Cycle costs of each level. Default values approximate Skylake-SP.
struct LatencyModel {
  uint32_t L1Hit = 4;
  uint32_t L2Hit = 14;
  uint32_t L3Hit = 68;
  uint32_t Memory = 230;
  uint32_t TlbMiss = 26;
};

/// Geometry of the whole hierarchy.
struct HierarchyConfig {
  CacheConfig L1{32 * 1024, 8, 64};
  CacheConfig L2{1024 * 1024, 16, 64};
  CacheConfig L3{25344 * 1024, 11, 64};
  uint32_t TlbEntries = 64;
  uint32_t TlbWays = 4;
  LatencyModel Latency;
};

/// One decoded data access: the unit of the batch interfaces. Trace
/// replay resolves event records into runs of these and hands each run to
/// the hierarchy (and to observers) as a block, so the per-access fast
/// path executes in a tight loop instead of behind a call per event. The
/// 16-byte layout keeps a 512-entry batch inside 8 KiB of buffer; a
/// single access never spans 4 GiB, so 32 bits of size suffice.
struct MemAccess {
  uint64_t Addr;
  uint32_t Size;
  uint32_t IsStore; ///< Loads and stores cost alike in the hierarchy; the
                    ///< flag exists for observers and event counters.
};

/// Counter snapshot for reporting.
struct MemoryCounters {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t L3Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t StallCycles = 0;
};

/// An inclusive three-level data-cache hierarchy with a TLB.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const HierarchyConfig &Config = HierarchyConfig());

  /// Performs a data access of \p Size bytes at \p Addr (loads and stores
  /// are treated alike: write-allocate, no write-back traffic modelled).
  /// Every cache line the access touches is looked up. Returns the cycles
  /// the access cost.
  uint64_t access(uint64_t Addr, uint64_t Size);

  /// Performs every access of \p Batch in order and returns the summed
  /// cycles -- bit-identical counters and cost to calling access() per
  /// element. The batch form exists so replay's dominant event runs drive
  /// the fused TLB+L1 fast path in a loop inside this TU (where
  /// accessLine inlines) rather than through one out-of-line call per
  /// event.
  uint64_t accessBatch(const MemAccess *Batch, size_t N);

  MemoryCounters counters() const;
  void reset();

  const Cache &l1() const { return L1; }
  const Cache &l2() const { return L2; }
  const Cache &l3() const { return L3; }
  const Tlb &tlb() const { return Dtlb; }

private:
  /// Fused TLB+L1 lookup: the dominant outcome — both the TLB's and the
  /// L1's most-recently-used entries hit — resolves with two inline tag
  /// compares and no further calls; everything else takes the out-of-line
  /// walk. Defined in the .cpp (callers all live there) so the fast path
  /// inlines into access() without bloating every load/store site.
  uint64_t accessLine(uint64_t LineAddr);

  /// Completes an access whose fused fast path missed. \p TlbDone tells
  /// whether the TLB already committed a hit on the fast path (it must be
  /// consulted exactly once per line).
  uint64_t accessLineSlow(uint64_t LineAddr, bool TlbDone);
  uint64_t accessSpan(uint64_t First, uint64_t Last);

  HierarchyConfig Config;
  uint64_t LineMask; ///< L1.LineSize - 1 (line size is a power of two).
  Cache L1, L2, L3;
  Tlb Dtlb;
  uint64_t Stalls = 0;
};

} // namespace halo

#endif // HALO_SIM_MEMORYHIERARCHY_H
