//===- trace/TraceFile.h - Out-of-core block-compressed traces --*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk EventTrace format (version 3) and the layer that streams it
/// out during recording and mmaps it back for replay. The in-RAM trace is
/// capped by memory and forces a re-record for anything big; this format
/// removes the ceiling the way data-center profile pipelines do -- the
/// profile becomes an indexed on-disk artifact that is *streamed*, never
/// loaded whole.
///
/// Layout (all multi-byte integers little-endian, varints LEB128):
///
///   header   u32 magic "HTRC"           u32 format version (3)
///   blocks   compressed block payloads, back to back, no inline headers
///   footer   varint numBlocks
///            varint x10 per-kind record counts   varint object count
///            varint total raw (pre-compression) bytes
///            per block: u8 method (0 raw, 1 lz)
///                       varint compressed bytes   varint raw bytes
///                       varint events
///                       u64 fnv1a of the compressed bytes
///   trailer  u64 fnv1a of the footer    u64 footer byte count
///            u32 end magic "CRTH"
///
/// Each block is a whole number of records, compressed independently
/// (support/Lz.h, with a raw fallback when compression does not pay), so
/// any block decodes without touching its predecessors. The footer lives
/// at the end (located through the fixed-size trailer, zip-style) because
/// the writer streams blocks out before it can know their count.
/// Checksums make corruption detection block-granular: the artifact store
/// treats any validation failure as absence and re-records.
///
/// Blocks are cut by one deterministic rule -- the shortest record prefix
/// of at least TraceBlockBytes encoded bytes -- applied identically by the
/// streaming recorder (flush inside EventTrace::emit) and by
/// EventTrace::save's scan over an in-RAM buffer, so recording straight to
/// disk and saving a recorded trace produce byte-identical files.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_TRACE_TRACEFILE_H
#define HALO_TRACE_TRACEFILE_H

#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace halo {

/// "HTRC" / "CRTH": the on-disk trace format's framing magics.
constexpr uint32_t TraceMagic = 0x43525448;
constexpr uint32_t TraceEndMagic = 0x48545243;
/// Version 3: the block-compressed format this file defines. Version 2
/// also carried per-block first-object/first-realloc seeds, and version 1
/// was the flat single-buffer encoding; old entries read as absence.
constexpr uint32_t TraceFormatVersion = 3;
/// Default block cut threshold. 1 MiB raw keeps at most a couple of MiB
/// of decoded trace resident during streamed replay while amortising
/// per-block costs over ~200k records.
constexpr uint64_t TraceBlockBytes = 1ull << 20;
/// Fixed framing sizes: header (magic, version) and trailer (footer
/// checksum, footer size, end magic). The block region is everything in
/// between, minus the footer.
constexpr size_t TraceHeaderBytes = 4 + 4;
constexpr size_t TraceTrailerBytes = 8 + 8 + 4;

/// One footer entry, plus the offsets derived while parsing (each block's
/// position is the running sum of its predecessors' sizes).
struct TraceBlockInfo {
  uint8_t Method = 0;        ///< 0 = raw bytes, 1 = lz-compressed.
  uint64_t CompBytes = 0;    ///< On-disk payload size.
  uint64_t RawBytes = 0;     ///< Decoded (pre-compression) size.
  uint64_t Events = 0;       ///< Records in the block.
  uint64_t Checksum = 0;     ///< fnv1a of the compressed bytes.
  // Derived at parse time:
  uint64_t FileOffset = 0;   ///< Payload offset from the region start.
  uint64_t FirstEvent = 0;   ///< Records before the block.
  uint64_t RawOffset = 0;    ///< Raw bytes before the block.
};

/// The decoded footer: whole-trace totals plus the block table.
struct TraceIndex {
  TraceCounts Counts;
  uint64_t Objects = 0;
  uint64_t TotalRawBytes = 0;
  std::vector<TraceBlockInfo> Blocks;
};

/// Parses and structurally validates the index of the \p Size-byte trace
/// image at \p Data: header and trailer magics, format version, footer
/// checksum, block sizes summing to the block region, totals consistent
/// with the per-block entries. Throws SerializationError on any mismatch.
/// Per-block payload checksums are NOT verified here (that needs a pass
/// over the payload bytes; MappedTrace::open does it once, streaming).
TraceIndex parseTraceIndex(const uint8_t *Data, size_t Size);

/// Streams a trace out block by block: header up front, each addBlock()
/// compresses and appends one payload immediately (nothing buffered but
/// the footer table), finish() seals footer and trailer. One writer
/// serves both sinks -- a growing BinaryWriter (EventTrace::save, store
/// publication) and a FILE* (recording straight to disk) -- which is what
/// makes the two paths byte-identical.
class TraceFileWriter {
public:
  /// Buffer sink: output accumulates in \p W.
  explicit TraceFileWriter(BinaryWriter &W);
  /// Stream sink: output is fwritten to \p F (caller owns the handle).
  /// I/O errors latch into ok() instead of throwing mid-record.
  explicit TraceFileWriter(std::FILE *F);

  TraceFileWriter(const TraceFileWriter &) = delete;
  TraceFileWriter &operator=(const TraceFileWriter &) = delete;

  /// Appends one block of \p RawN encoded record bytes. \p EventsAfter is
  /// the trace's running record count *after* the block's records (the
  /// recorder's natural state at flush time); the writer diffs it against
  /// the previous block's to derive the footer entry.
  void addBlock(const uint8_t *Raw, size_t RawN, uint64_t EventsAfter);

  /// Seals the file: footer (block table + the final whole-trace totals)
  /// and trailer. Returns ok(). Must be called exactly once, last.
  bool finish(const TraceCounts &Counts, uint64_t Objects);

  /// False once any FILE* write failed (buffer sinks cannot fail).
  bool ok() const { return Ok; }

  uint64_t blocks() const { return Table.size(); }
  uint64_t rawBytes() const { return RawTotal; }
  uint64_t compressedBytes() const { return CompTotal; }

private:
  void sink(const void *Data, size_t Size);

  BinaryWriter *BufOut = nullptr;
  std::FILE *FileOut = nullptr;
  std::vector<TraceBlockInfo> Table;
  uint64_t PrevEvents = 0;
  uint64_t RawTotal = 0;
  uint64_t CompTotal = 0;
  bool Ok = true;
  bool Finished = false;
};

/// A read-only trace mapped from disk. open() validates the image
/// completely -- index structure plus every block checksum, one streaming
/// pass -- so a MappedTrace in hand is known-good and the decode paths
/// can skip re-verification. Replay consumers decode one block at a time
/// into a reused scratch buffer and release the consumed file pages
/// (releaseBlock), keeping resident memory bounded by a couple of blocks
/// regardless of trace size.
class MappedTrace {
public:
  MappedTrace() = default;
  MappedTrace(MappedTrace &&Other) noexcept { *this = std::move(Other); }
  MappedTrace &operator=(MappedTrace &&Other) noexcept;
  MappedTrace(const MappedTrace &) = delete;
  MappedTrace &operator=(const MappedTrace &) = delete;
  ~MappedTrace();

  /// Maps and validates the whole file at \p Path as a trace image.
  /// Throws SerializationError on any validation failure and
  /// std::runtime_error when the file cannot be opened or mapped.
  static MappedTrace open(const std::string &Path);

  /// Maps the \p Length-byte trace image starting \p Offset bytes into
  /// \p Path -- the store-entry form, where the trace is an entry's
  /// payload and the entry header precedes it in the same file.
  static MappedTrace open(const std::string &Path, uint64_t Offset,
                          uint64_t Length);

  const TraceIndex &index() const { return Idx; }
  const TraceCounts &counts() const { return Idx.Counts; }
  uint64_t numEvents() const { return Idx.Counts.total(); }
  uint32_t numObjects() const { return static_cast<uint32_t>(Idx.Objects); }
  /// Total decoded (raw varint-record) bytes across all blocks.
  uint64_t rawBytes() const { return Idx.TotalRawBytes; }
  size_t numBlocks() const { return Idx.Blocks.size(); }
  bool empty() const { return Idx.Counts.total() == 0; }
  const TraceBlockInfo &block(size_t B) const { return Idx.Blocks[B]; }
  /// The mapped image size (header + blocks + footer + trailer).
  uint64_t fileBytes() const { return Size; }

  /// Decodes block \p B into \p Scratch (resized to the block's raw
  /// byte count). Blocks are independent: any block, any order, any
  /// thread (Scratch is the caller's).
  void decodeBlock(size_t B, std::vector<uint8_t> &Scratch) const;

  /// Tells the kernel block \p B's file pages are dead to this reader
  /// (sequential replay calls it as it leaves each block behind).
  void releaseBlock(size_t B) const;

  /// Block-streaming batch decoder, the MappedTrace counterpart of
  /// EventTrace::Cursor: fill() decodes records into a flat TraceEvent
  /// buffer, pulling blocks through one internal scratch as needed.
  class Cursor {
  public:
    explicit Cursor(const MappedTrace &Trace) : T(&Trace) {}

    bool atEnd() const { return R.atEnd() && NextBlock == T->numBlocks(); }

    /// Decodes up to \p MaxN records into \p Out; returns how many were
    /// decoded (0 only at the end of the trace).
    size_t fill(TraceEvent *Out, size_t MaxN);

  private:
    const MappedTrace *T;
    size_t NextBlock = 0;
    std::vector<uint8_t> Scratch;
    EventTrace::Reader R{nullptr, nullptr};
  };

  Cursor cursor() const { return Cursor(*this); }

private:
  void *Map = nullptr;        ///< mmap base (page aligned).
  size_t MapLen = 0;
  const uint8_t *Data = nullptr; ///< Trace image start within the map.
  size_t Size = 0;
  const uint8_t *Blocks = nullptr; ///< Block region start (Data + 8).
  TraceIndex Idx;
};

/// How measurement drivers hold traces. The in-memory path is the oracle
/// every other path is tested against ("mapped = in-RAM").
enum class TraceMode {
  Auto,   ///< Memory for cold recordings; large stored traces open mapped.
  Memory, ///< Everything in RAM (the historical behaviour).
  Mapped, ///< Record streaming to disk, replay mmap'd, block by block.
};

/// The stable spelling of \p M used in JSON output and CLI flags.
const char *traceModeName(TraceMode M);

/// Parses a traceModeName() spelling; std::nullopt for unknown names.
std::optional<TraceMode> parseTraceMode(const std::string &Name);

} // namespace halo

#endif // HALO_TRACE_TRACEFILE_H
