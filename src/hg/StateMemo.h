//===- StateMemo.h - Memoized abstraction-order probes ---------*- C++ -*-===//
//
// Algorithm 1 probes the abstraction order (Pred::leq / MemModel::leq) at
// every join point: each new symbolic state is compared against every
// existing vertex state at the same address, and most probes repeat —
// loops keep presenting the same (state, invariant) pair until the vertex
// stabilizes. This memo caches those probes per lifting arena.
//
// The key is a mix of the two sides' structural digests (Pred::digest /
// MemModel::digest). Digests can collide, so an entry holds copies of both
// sides and is only trusted after operator== confirms them — a collision is
// a miss, never a wrong answer. The copies are handles: they share the
// probed states' clause and forest buffers (support/Cow.h), so a miss costs
// reference-count bumps rather than deep copies, and the confirming
// operator== usually short-circuits on a shared buffer. Entries are
// overwritten on key collision and the maps are cleared at a fixed cap,
// which keeps the memo O(1) per probe and bounded per function.
//
// Not synchronized: one memo per lifting arena, used by one thread at a
// time (the same discipline as ExprContext).
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_HG_STATEMEMO_H
#define HGLIFT_HG_STATEMEMO_H

#include "memmodel/MemModel.h"
#include "pred/Pred.h"
#include "support/LiftStats.h"

#include <unordered_map>

namespace hglift::hg {

class StateLeqMemo {
public:
  /// Entries per map; a map reaching it is cleared.
  static constexpr size_t Cap = 1u << 13;

  /// Stats is optional; when attached, LeqHits/LeqMisses are counted there.
  void setLiftStats(LiftStats *Sink) { LS = Sink; }

  bool predLeq(const pred::Pred &A, const pred::Pred &B) {
    uint64_t Key = mixKey(A.digest(), B.digest());
    if (auto It = Preds.find(Key);
        It != Preds.end() && It->second.A == A && It->second.B == B) {
      hit();
      return It->second.Result;
    }
    miss();
    bool R = pred::Pred::leq(A, B);
    bound(Preds);
    Preds.insert_or_assign(Key, PredEntry{A, B, R});
    return R;
  }

  bool memLeq(const mem::MemModel &A, const mem::MemModel &B) {
    uint64_t Key = mixKey(A.digest(), B.digest());
    if (auto It = Mems.find(Key);
        It != Mems.end() && It->second.A == A && It->second.B == B) {
      hit();
      return It->second.Result;
    }
    miss();
    bool R = mem::MemModel::leq(A, B);
    bound(Mems);
    Mems.insert_or_assign(Key, MemEntry{A, B, R});
    return R;
  }

private:
  struct PredEntry {
    pred::Pred A, B;
    bool Result;
  };
  struct MemEntry {
    mem::MemModel A, B;
    bool Result;
  };

  static uint64_t mixKey(uint64_t DA, uint64_t DB) {
    DB *= 0x9e3779b97f4a7c15ULL;
    DB ^= DB >> 29;
    return (DA ^ DB) * 0xbf58476d1ce4e5b9ULL + 1;
  }

  template <class Map> static void bound(Map &M) {
    if (M.size() >= Cap)
      M.clear();
  }

  void hit() {
    if (LS)
      ++LS->LeqHits;
  }
  void miss() {
    if (LS)
      ++LS->LeqMisses;
  }

  std::unordered_map<uint64_t, PredEntry> Preds;
  std::unordered_map<uint64_t, MemEntry> Mems;
  LiftStats *LS = nullptr;
};

} // namespace hglift::hg

#endif // HGLIFT_HG_STATEMEMO_H
