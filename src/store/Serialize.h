//===- Serialize.h - Byte-deterministic FunctionResult format --*- C++ -*-===//
//
// Versioned binary serialization of one lifted function: the Hoare Graph
// (vertices with their Pred clauses and MemModel forests, edges with their
// decoded instructions), the return-address symbol, the structured
// diagnostics with provenance, the lift statistics, and the function's
// fresh-variable counter. The format is byte-deterministic: serializing
// the same result twice — or serializing a deserialized copy — produces
// identical bytes, which is what the round-trip tests pin and what makes
// content-addressed storage meaningful.
//
// Wall-clock fields (LiftStats::Seconds and SolverSeconds) and the
// schedule-dependent Provenance::Worker are excluded — exactly the fields
// --report-json already excludes so its bytes are thread-count-invariant.
// Every integer LiftStats counter is kept, so a store hit's --stats-json
// reads what its cold lift did.
//
// The entry header carries three invalidation keys, checkable without
// deserializing the payload:
//
//   * StoreSchemaVersion: the format itself. Bump on any layout change.
//   * SemanticsRevision: the instruction semantics + abstract domains.
//     Bump whenever a change to SymExec / Pred / MemModel / the solver can
//     alter lifted graphs — stored artifacts from older semantics must
//     never be replayed.
//   * a config digest over every LiftConfig field that is visible in the
//     lifted result, and a byte digest over the function's instruction
//     bytes (the spans its explored vertices cover, re-read from the
//     *current* image at lookup time) plus the PLT-stub map (external-call
//     targets). Any mismatch is a miss.
//
// Byte changes the spans cannot see (e.g. jump-table rodata) are caught by
// the Step-2 re-validation every cache hit goes through (store/Store.h).
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_STORE_SERIALIZE_H
#define HGLIFT_STORE_SERIALIZE_H

#include "hg/Lifter.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace hglift::store {

/// Bump on any change to the serialized layout below.
/// 3: the counter block holds every integer LiftStats field, in
/// HGLIFT_LIFT_STATS order.
constexpr uint32_t StoreSchemaVersion = 3;

/// Bump whenever the instruction semantics or the abstract domains change
/// in a way that can alter a lifted graph (see the header comment).
/// 2: a signed branch clause on an 8-, 16- or 32-bit compare is stated on
/// the operand sign-extended to 64 bits.
constexpr uint32_t SemanticsRevision = 2;

/// One instruction span: (address, encoded length).
using Span = std::pair<uint64_t, uint32_t>;

/// Digest over every LiftConfig field the lifted result can depend on.
/// Wall-clock budget, thread count, and the pure-performance cache knobs
/// are bit-invisible in results and deliberately excluded.
uint64_t configDigest(const hg::LiftConfig &Cfg);

/// Sorted distinct (address, length) spans of F's explored instructions.
std::vector<Span> instructionSpans(const hg::FunctionResult &F);

/// FNV digest over the image bytes at Spans plus the PLT-stub map. Returns
/// nullopt if any span is not fully mapped in Img (always a cache miss).
std::optional<uint64_t> byteDigest(const elf::BinaryImage &Img,
                                   const std::vector<Span> &Spans);

/// The header fields of a serialized entry, parseable without building an
/// arena (the store checks these before paying for deserialization).
struct EntryHeader {
  uint64_t Entry = 0;
  uint64_t ConfigDigest = 0;
  std::vector<Span> Spans;
  uint64_t ByteDigest = 0;
};

/// Serialize F. Requires F.Outcome == Lifted and F.Arena (only fully
/// lifted, arena-backed results are cacheable). Cfg contributes only the
/// header's config digest.
std::vector<uint8_t> serializeFunction(const hg::FunctionResult &F,
                                       const elf::BinaryImage &Img,
                                       const hg::LiftConfig &Cfg);

/// Parse and validate the header: magic, schema version, semantics
/// revision, and the trailing whole-entry checksum. False on any mismatch
/// or truncation.
bool readHeader(const std::vector<uint8_t> &Bytes, EntryHeader &Out);

/// Full deserialization into a fresh LiftArena built from (Img, Cfg). The
/// returned result's expressions live in that arena's context, and its
/// fresh-variable counter resumes where the producer's left off. Returns
/// nullopt on any malformation (never trusts the input).
std::optional<hg::FunctionResult>
deserializeFunction(const std::vector<uint8_t> &Bytes,
                    const elf::BinaryImage &Img, const hg::LiftConfig &Cfg);

} // namespace hglift::store

#endif // HGLIFT_STORE_SERIALIZE_H
