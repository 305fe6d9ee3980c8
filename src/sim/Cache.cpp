//===- sim/Cache.cpp - Set-associative cache model -------------------------===//

#include "sim/Cache.h"

#include "support/Bits.h"

#include <cassert>

using namespace halo;

Cache::Cache(const CacheConfig &Config) : Config(Config) {
  assert(isPowerOfTwo(Config.LineSize) && "line size must be a power of two");
  assert(Config.Ways > 0 && "cache needs at least one way");
  assert(Config.Ways <= 256 && "way index must fit the uint8_t MRU hint");
  assert(Config.SizeBytes % (uint64_t(Config.Ways) * Config.LineSize) == 0 &&
         "size must be divisible by way span");
  Sets = static_cast<uint32_t>(Config.SizeBytes /
                               (uint64_t(Config.Ways) * Config.LineSize));
  assert(Sets > 0 && "cache has no sets");
  while ((1u << LineShift) < Config.LineSize)
    ++LineShift;
  if (isPowerOfTwo(Sets)) {
    SetShift = 0;
    while ((1u << SetShift) < Sets)
      ++SetShift;
  } else {
    while (((Sets >> SetP2Shift) & 1) == 0)
      ++SetP2Shift;
    // Dividends are line numbers with the set count's power-of-two factor
    // already shifted out, so the reciprocal's exactness bound only has to
    // cover that reduced range.
    OddDiv = MagicDivider(Sets >> SetP2Shift,
                          (~0ull >> LineShift) >> SetP2Shift);
  }
  Slots.assign(uint64_t(Sets) * Config.Ways, Slot{InvalidTag, 0});
  initEmptyClocks();
  Mru.assign(Sets, 0);
  MruTag.assign(Sets, InvalidTag);
}

void Cache::initEmptyClocks() {
  // Unique empty-slot clocks: way I of every set starts at use clock I and
  // the global clock starts at Ways, so every live clock exceeds every
  // empty one and the victim scan's strict < picks the same slot the old
  // all-zeros, first-wins scheme did (empties fill in index order).
  for (uint64_t I = 0; I < Slots.size(); ++I)
    Slots[I].Use = I % Config.Ways;
  Clock = Config.Ways;
}

bool Cache::contains(uint64_t Addr) const {
  auto [Set, Tag] = locate(Addr);
  const Slot *Begin = &Slots[uint64_t(Set) * Config.Ways];
  for (const Slot *S = Begin; S != Begin + Config.Ways; ++S)
    if (S->Tag == Tag)
      return true;
  return false;
}

void Cache::reset() {
  Slots.assign(Slots.size(), Slot{InvalidTag, 0});
  initEmptyClocks();
  Mru.assign(Sets, 0);
  MruTag.assign(Sets, InvalidTag);
  Hits = Misses = 0;
}
