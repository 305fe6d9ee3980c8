//===- store/ArtifactStore.h - Content-addressed artifact store -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk store for the expensive, machine-independent
/// halves of an experiment plan: recorded event traces and HALO/HDS
/// pipeline artifacts. The design follows Nix's libstore discipline:
///
///  * Entries are addressed by a stable content hash of their *inputs* --
///    (domain tag, schema version, benchmark, scale, seed, every
///    machine-independent pipeline option) -- never by mtime or file name
///    conventions. The machine config is deliberately absent: recordings
///    and artifacts are machine-independent (eval/Evaluation.h), so one
///    entry serves sweeps over every machine.
///  * Writes go to a temp file in the store directory and are published
///    with a single atomic rename(); readers never observe partial
///    entries, and concurrent writers racing one key both succeed (last
///    rename wins; the payloads are identical by construction).
///  * Entries are never mutated. Invalidation is a key change: bumping
///    StoreSchemaVersion (or any key component changing) produces a new
///    hash, and stale entries are simply never addressed again until
///    `halo_cli store gc` removes them.
///  * Every read validates the entry header and a payload checksum;
///    truncated or bit-flipped entries read as "absent" so callers fall
///    back to re-recording instead of crashing or silently replaying
///    garbage.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_STORE_ARTIFACTSTORE_H
#define HALO_STORE_ARTIFACTSTORE_H

#include "core/Pipeline.h"
#include "hds/HdsPipeline.h"
#include "trace/TraceFile.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace halo {

class EventTrace;

/// Version stamp of every serialized format and key encoding reaching the
/// store. Bump it whenever any save/load pair or key component changes
/// meaning: old entries then miss (their hashes differ) instead of
/// decoding under wrong assumptions.
///
/// v2: traces use the block-compressed on-disk format (trace/TraceFile.h).
/// v3: trace footers drop the per-block first-object/first-realloc seeds.
constexpr uint32_t StoreSchemaVersion = 3;

/// What an entry holds; part of the key, so the same (benchmark, scale,
/// seed) coordinate never collides across domains.
enum class ArtifactType : uint8_t { Trace = 0, Halo = 1, Hds = 2 };

/// Stable spelling of \p Type ("trace" / "halo" / "hds"), used in file
/// names and `store ls` output.
const char *artifactTypeName(ArtifactType Type);

/// A fully resolved store address: the content hash of the canonical key
/// encoding plus a human-readable label for listings.
struct StoreKey {
  uint64_t Hash = 0;
  ArtifactType Type = ArtifactType::Trace;
  std::string Label;
};

/// Key of a recorded event trace: (trace tag, schema, benchmark, scale,
/// seed). \p Schema is a parameter (defaulting to the live version) so
/// tests can prove that a schema bump invalidates every entry.
StoreKey traceStoreKey(const std::string &Benchmark, Scale S, uint64_t Seed,
                       uint32_t Schema = StoreSchemaVersion);

/// Key of a HALO pipeline artifact bundle: (halo tag, schema, benchmark,
/// profile scale/seed, every HaloParameters field). Any tuning knob change
/// re-keys the entry.
StoreKey haloStoreKey(const std::string &Benchmark, Scale ProfileScale,
                      uint64_t ProfileSeed, const HaloParameters &Params,
                      uint32_t Schema = StoreSchemaVersion);

/// Key of an HDS pipeline artifact bundle (same shape, HdsParameters).
StoreKey hdsStoreKey(const std::string &Benchmark, Scale ProfileScale,
                     uint64_t ProfileSeed, const HdsParameters &Params,
                     uint32_t Schema = StoreSchemaVersion);

/// The on-disk store: one flat directory of immutable entries named by
/// their key hash. All operations are safe to call from concurrent
/// threads and processes sharing the directory: the store itself holds
/// no open descriptors or caches (only the directory path), every
/// publish is temp-file + atomic rename, and entries are content-keyed,
/// so a same-key republish writes identical bytes. A long-lived owner
/// -- the serve daemon keeps one store open for its whole lifetime,
/// serving every plan from it -- needs no refresh or reopen; and because
/// rename replaces the directory entry but not the inode, MappedTrace
/// mappings opened off an entry stay valid even across a concurrent
/// republish of the same key.
class ArtifactStore {
public:
  /// One entry as `store ls` / `store verify` see it.
  struct Entry {
    std::string File; ///< File name within the store directory.
    uint64_t Hash = 0;
    ArtifactType Type = ArtifactType::Trace;
    std::string Label;
    uint64_t PayloadSize = 0;
    bool Valid = false;
    std::string Problem; ///< Why Valid is false; empty otherwise.
  };

  /// Opens (creating if needed) the store at \p Dir. Throws
  /// std::runtime_error if the directory cannot be created or is not
  /// writable -- a store that silently drops every put would turn every
  /// warm run cold without anyone noticing.
  explicit ArtifactStore(std::string Dir);

  const std::string &dir() const { return Dir; }

  /// Publishes \p Payload under \p Key: temp file + atomic rename.
  /// Returns false (without throwing) if the write fails; the caller's
  /// result is already computed, so a failed publish only loses caching.
  bool put(const StoreKey &Key, const std::vector<uint8_t> &Payload);

  /// Reads and validates the entry for \p Key. Missing, truncated,
  /// corrupt, or mismatched entries all return nullopt -- the caller
  /// falls back to recomputing.
  std::optional<std::vector<uint8_t>> get(const StoreKey &Key) const;

  /// True if a fully valid entry for \p Key exists right now (reads and
  /// checksums it; plan building uses this to prune tasks).
  bool contains(const StoreKey &Key) const;

  /// Every entry file in the store, sorted by file name. With \p Validate
  /// the whole payload is read and checksummed (`store verify` / gc); without
  /// it only the header is parsed and PayloadSize comes from the header, so
  /// listing a store of multi-gigabyte traces stays cheap and `store ls`
  /// can always report per-entry sizes.
  std::vector<Entry> entries(bool Validate = true) const;

  /// Removes invalid entries and abandoned temp files; returns how many
  /// files were deleted. Valid entries are never touched.
  size_t gc();

private:
  std::string pathFor(const StoreKey &Key) const;

  std::string Dir;
};

//===----------------------------------------------------------------------===//
// Typed helpers: serialize/deserialize + store in one call.
//===----------------------------------------------------------------------===//

/// Publishes \p Trace under \p Key (Key.Type must be Trace).
bool putTrace(ArtifactStore &Store, const StoreKey &Key,
              const EventTrace &Trace);

/// Loads and decodes a trace; nullopt on miss or any decode failure.
std::optional<EventTrace> getTrace(const ArtifactStore &Store,
                                   const StoreKey &Key);

/// Publishes the trace file at \p Path (written by a streaming
/// TraceFileWriter) under \p Key without ever materialising the payload in
/// memory: one streaming pass computes the entry checksum, a second copies
/// the bytes behind the entry header into a temp file, then the usual
/// atomic rename. Returns false on any I/O failure.
bool putTraceFile(ArtifactStore &Store, const StoreKey &Key,
                  const std::string &Path);

/// Opens the trace entry for \p Key as a zero-copy MappedTrace over the
/// entry file's payload region. The entry header is validated but the
/// entry-level payload checksum is *not* recomputed -- in the v2 trace
/// format every payload byte is already covered by a per-block or footer
/// checksum that MappedTrace::open verifies, so a second whole-file pass
/// would only repeat that work. Missing, corrupt, or mismatched entries
/// return nullopt (corruption is absence, as everywhere in the store).
std::optional<MappedTrace> openMappedTrace(const ArtifactStore &Store,
                                           const StoreKey &Key);

/// Same, by entry file path instead of key: lets `halo_cli trace info`
/// inspect a trace entry inside a store directory without knowing how its
/// key was derived. The file must be a valid trace-type entry.
std::optional<MappedTrace> openTraceEntryFile(const std::string &Path);

/// Publishes \p Art under \p Key (Key.Type must be Halo).
bool putHaloArtifacts(ArtifactStore &Store, const StoreKey &Key,
                      const HaloArtifacts &Art);

/// Loads and decodes a HALO bundle, rebuilding the derived members
/// against \p Prog; nullopt on miss or any decode failure.
std::optional<HaloArtifacts> getHaloArtifacts(const ArtifactStore &Store,
                                              const StoreKey &Key,
                                              const Program &Prog);

/// Publishes \p Art under \p Key (Key.Type must be Hds).
bool putHdsArtifacts(ArtifactStore &Store, const StoreKey &Key,
                     const HdsArtifacts &Art);

/// Loads and decodes an HDS bundle; nullopt on miss or any decode failure.
std::optional<HdsArtifacts> getHdsArtifacts(const ArtifactStore &Store,
                                            const StoreKey &Key);

} // namespace halo

#endif // HALO_STORE_ARTIFACTSTORE_H
