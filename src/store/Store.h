//===- Store.h - Content-addressed on-disk HG artifact store ---*- C++ -*-===//
//
// A git-like object store for serialized function lifts:
//
//   DIR/objects/<digest>.hgfn   immutable content blobs, named by the FNV
//                               digest of their bytes; written via
//                               tempfile + rename (atomic on POSIX)
//   DIR/index/<entry>-<cfg>.ref mutable pointers: the object digest
//                               currently cached for (function entry,
//                               config digest); same atomic write
//
// Soundness story: a hit is NEVER trusted. The entry header's digests
// (instruction bytes re-read from the current image, config, semantics
// revision, schema version) gate deserialization, and the deserialized
// graph is then re-proven through the Step-2 checker — one theorem per
// edge, exactly what the paper's Isabelle step would re-prove. Anything
// short of a fully proven graph degrades to a clean miss and a fresh lift.
// The proof travels with the hit: its theorem count is recorded on the
// returned result (FunctionResult::Reproven), so a later binary-wide
// check counts it instead of proving it twice.
//
// Concurrency: lookup/store may be called from many lifting workers, from
// many Sessions sharing one instance (the serve daemon's workers), and
// from many processes sharing one DIR. All writes are tempfile+rename; a
// torn or half-written entry can never be observed, only a missing or a
// complete one. Readers treat every failure mode — missing ref, missing
// object, checksum mismatch, malformed payload — as a miss.
//
// Eviction: when the configured byte budget is exceeded after a store,
// oldest-mtime objects are removed first (hits refresh mtime, making this
// LRU); refs pointing at evicted objects simply miss later.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_STORE_STORE_H
#define HGLIFT_STORE_STORE_H

#include "store/Serialize.h"

#include <mutex>
#include <string>

namespace hglift::store {

struct CacheStats {
  uint64_t Hits = 0;      ///< lookups served from the store
  uint64_t Misses = 0;    ///< lookups that fell through to a fresh lift
  uint64_t Stored = 0;    ///< entries written
  uint64_t Validated = 0; ///< hits that passed Step-2 re-validation
  uint64_t ValidationFailures = 0; ///< hits rejected by Step-2 (degraded to miss)
  uint64_t Evictions = 0; ///< objects removed by the byte-budget sweep

  /// Fold another counter snapshot in (a bench sums its runs this way).
  CacheStats &operator+=(const CacheStats &O) {
    Hits += O.Hits;
    Misses += O.Misses;
    Stored += O.Stored;
    Validated += O.Validated;
    ValidationFailures += O.ValidationFailures;
    Evictions += O.Evictions;
    return *this;
  }
};

class CacheStore : public hg::FunctionCache {
public:
  struct Options {
    std::string Dir;
    /// Byte budget for objects/ (0 = unlimited). Checked after stores.
    uint64_t MaxBytes = 0;
  };

  explicit CacheStore(Options O);

  std::optional<hg::FunctionResult> lookup(const elf::BinaryImage &Img,
                                           const hg::LiftConfig &Cfg,
                                           uint64_t Entry) override;
  void store(const elf::BinaryImage &Img, const hg::LiftConfig &Cfg,
             const hg::FunctionResult &F) override;

  CacheStats stats() const;

private:
  std::optional<hg::FunctionResult> lookupImpl(const elf::BinaryImage &Img,
                                               const hg::LiftConfig &Cfg,
                                               uint64_t Entry);
  void evictOverBudget();

  Options Opt;
  mutable std::mutex Mu; ///< guards Stats (files are atomic-rename safe
                         ///< on their own)
  CacheStats Stats;
};

} // namespace hglift::store

#endif // HGLIFT_STORE_STORE_H
