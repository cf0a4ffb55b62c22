//===- Pred.h - Symbolic predicates (§3.1) ---------------------*- C++ -*-===//
//
// A predicate P is a set of clauses E □ C. We store it in solved form:
//
//   * one clause  reg == C  per general-purpose register (the map Regs);
//     a register whose value is a Fresh variable is unconstrained, which
//     is how "the clause was dropped" is represented soundly;
//   * memory clauses  *[C_addr, n] == C_val  (the list Cells);
//   * a flag abstraction: rather than six separate flag clauses we record
//     the operation that last set the flags (cmp / test / an ALU result),
//     from which each condition code is derived on demand;
//   * residual range clauses  C □ k  with k a numeric constant (the list
//     Ranges) — these carry jump-table bounds like "eax ≤ 0xc3" in §2 and
//     the results of joining unequal constants (Example 3.4).
//
// The join (Definition 3.3 / Example 3.4) keeps clauses both sides agree
// on, widens disagreeing constants to ranges via interval abstraction, and
// drops everything else by substituting Fresh variables — only ever
// weakening, as Definition 3.15 requires.
//
// The clause lists are copy-on-write (support/Cow.h): copying a Pred shares
// its Cells and Ranges buffers, and the first mutator to touch a shared
// buffer clones it. Mutators that turn out not to change anything (a
// setCell with the same value, a removeCell that finds no cell) leave the
// buffers shared.
//
// Every Pred carries a *version stamp*: a process-wide monotone counter
// value re-assigned by every mutating operation (copies keep their source's
// stamp). Two Preds with equal stamps are guaranteed content-identical, so
// the stamp serves as an exact O(1) identity for caching — the relation
// solver keys its query cache on it, and mutating a predicate implicitly
// invalidates every cache entry derived from its old state (the stale key
// can never be produced again).
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_PRED_PRED_H
#define HGLIFT_PRED_PRED_H

#include "expr/Eval.h"
#include "expr/ExprContext.h"
#include "support/Cow.h"
#include "support/Interval.h"
#include "x86/Reg.h"

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace hglift::pred {

using expr::Expr;
using expr::ExprContext;

/// Relations for range clauses: E □ k. Eq is included for completeness but
/// equalities normally live in the Regs/Cells maps.
enum class RelOp : uint8_t { Eq, Ne, ULt, ULe, UGe, UGt, SLt, SLe, SGe, SGt };

const char *relOpName(RelOp Op);

/// Concrete truth of V □ Bound. The signed relations read both operands as
/// 64-bit two's complement, which is why SymExec puts every signed branch
/// clause on a 64-bit expression.
bool relHolds(RelOp Op, uint64_t V, uint64_t Bound);

struct RangeClause {
  const Expr *E;
  RelOp Op;
  uint64_t Bound;

  bool operator==(const RangeClause &O) const = default;
};

/// A memory clause *[Addr, Size] == Val.
struct MemCell {
  const Expr *Addr;
  uint32_t Size;
  const Expr *Val;

  bool operator==(const MemCell &O) const = default;
};

/// Abstraction of RFLAGS: the operation that last defined them.
struct FlagState {
  enum class Kind : uint8_t {
    Unknown, ///< nothing known (initial state, or flag-clobbering op)
    Cmp,     ///< flags of (L - R)
    Test,    ///< flags of (L & R)
    Res,     ///< only ZF/SF known, from result L (e.g. after add/and/shl)
    ZeroOf,  ///< only ZF known: ZF = (L == 0) (e.g. after bsf/bsr)
  };
  Kind K = Kind::Unknown;
  const Expr *L = nullptr;
  const Expr *R = nullptr;
  uint8_t Width = 64;

  bool operator==(const FlagState &O) const = default;
};

class Pred {
public:
  Pred() { Regs.fill(nullptr); }

  /// The initial predicate P0 of a function (Figure 1): every register
  /// holds its InitReg variable, rsp holds the StackBase variable rsp0,
  /// and *[rsp0, 8] == a_r (the return-address symbol RetSymTop, which
  /// defaults to a RetAddr variable).
  static Pred entry(ExprContext &Ctx, const Expr *RetSymTop = nullptr);

  bool isBottom() const { return Bottom; }
  void setBottom() {
    Bottom = true;
    bumpVersion();
  }

  // --- identity / caching support -----------------------------------------

  /// Monotone version stamp: re-assigned (from a process-wide counter) by
  /// every mutating member function. Equal stamps imply identical content;
  /// a mutation makes the old stamp unreproducible, which is what
  /// invalidates version-keyed caches.
  uint64_t version() const { return Version; }

  /// Structural content digest: mixes the interned-expression hashes of
  /// every clause. Memoized per version stamp (not synchronized — one Pred,
  /// one thread, like the rest of this class).
  uint64_t digest() const;

  /// Content equality (clause-for-clause, via interned pointers); the
  /// version stamp and digest memo are *not* compared. Only meaningful for
  /// predicates from the same ExprContext.
  bool operator==(const Pred &O) const {
    return Bottom == O.Bottom && Regs == O.Regs && Flags == O.Flags &&
           Cells == O.Cells && Ranges == O.Ranges;
  }

  // --- registers -----------------------------------------------------------

  /// Full 64-bit value of R.
  const Expr *reg64(x86::Reg R) const { return Regs[x86::regNum(R)]; }
  void setReg64(x86::Reg R, const Expr *V) {
    Regs[x86::regNum(R)] = V;
    bumpVersion();
  }

  /// Value of R viewed at SizeBytes (1/2/4/8), honoring high-byte access.
  const Expr *readReg(ExprContext &Ctx, x86::Reg R, unsigned SizeBytes,
                      bool HighByte = false) const;

  /// x86 write semantics: 64-bit replaces, 32-bit zero-extends, 16/8-bit
  /// merge into the old value.
  void writeReg(ExprContext &Ctx, x86::Reg R, unsigned SizeBytes,
                bool HighByte, const Expr *V);

  // --- flags ---------------------------------------------------------------

  const FlagState &flags() const { return Flags; }
  void setFlagsCmp(const Expr *L, const Expr *R, unsigned Width);
  void setFlagsTest(const Expr *L, const Expr *R, unsigned Width);
  void setFlagsRes(const Expr *Res, unsigned Width);
  void setFlagsZeroOf(const Expr *L, unsigned Width);
  void clearFlags() {
    Flags = FlagState{};
    bumpVersion();
  }

  /// The 1-bit expression for condition CC under the current flag state, or
  /// nullptr if unknown (e.g. overflow/parity conditions after Res).
  const Expr *condExpr(ExprContext &Ctx, x86::Cond CC) const;

  // --- memory clauses ------------------------------------------------------

  const std::vector<MemCell> &cells() const { return *Cells; }
  /// Cell with syntactically identical address and size, or nullptr.
  const MemCell *findCell(const Expr *Addr, uint32_t Size) const;
  /// Insert or replace the cell at (Addr, Size).
  void setCell(const Expr *Addr, uint32_t Size, const Expr *Val);
  void removeCell(const Expr *Addr, uint32_t Size);
  /// Remove cells for which Keep returns false.
  void filterCells(const std::function<bool(const MemCell &)> &Keep);

  // --- range clauses -------------------------------------------------------

  const std::vector<RangeClause> &ranges() const { return *Ranges; }
  void addRange(const Expr *E, RelOp Op, uint64_t Bound);
  void clearRangesFor(const Expr *E);

  /// Signed interval for E implied by this predicate (constants fold;
  /// range clauses on E and on its linear atoms are consulted).
  Interval intervalOf(const Expr *E) const;

  /// Signed interval for the value of a linear form: Constant + Σ
  /// Coeff·atom. This is the relation solver's tier-1 entry point — it
  /// consumes an already-linearized address difference (no Sub expression
  /// needs to be interned) and reasons slightly more structurally than
  /// intervalOf: and-mask and shift-by-constant width bounds, plus range
  /// clauses whose LHS linearizes to the same term list as LF (which
  /// subsumes the "clause keyed on this exact expression" check).
  /// intervalOf itself is deliberately left alone: it feeds join/widening,
  /// where extra precision would change lift semantics rather than just
  /// discharge more relation queries.
  Interval intervalOfForm(const expr::LinearForm &LF) const;

  /// Any Eq range clause present? Consulted by the solver's tier-2
  /// admission filter: equality-pinned predicates are the ones Z3 can
  /// refute outright (vacuous paths), so they are never filtered.
  bool hasEqRange() const;

  /// Unsigned upper bound for E if one is implied (the jump-table case:
  /// "eax ≤ 0xc3" yields 0xc3). Sound only together with the lower bound 0
  /// from ULt/ULe clauses.
  std::optional<uint64_t> unsignedUpperBound(const Expr *E) const;

  /// Candidate values of Var that straddle this predicate's range-clause
  /// boundaries: for every range clause whose LHS mentions Var, the values
  /// of Var that put the clause expression at Bound-1 / Bound / Bound+1
  /// (solved exactly when the clause is affine in Var — probed at Var=0 and
  /// Var=1 — raw boundary values otherwise), plus the endpoints of
  /// intervalOf(Var). These are the directed seeds of the incorrectness-
  /// witness search: a violated E □ k clause is falsified at or next to its
  /// boundary, not in the middle of the admitted interval. Sorted, deduped.
  std::vector<uint64_t> witnessSeeds(const Expr *Var) const;

  // --- join / order (Definition 3.3) --------------------------------------

  /// Least upper bound. Fresh variables introduced for dropped clauses are
  /// allocated from Ctx. If Widen is set, disagreeing constants are dropped
  /// instead of range-abstracted (used after repeated joins at the same
  /// vertex to force termination). Protect (optional, VSA retry loop in
  /// Lifter.cpp) lists expressions whose interval-join bound is kept even
  /// under widening, so a jump-table guard clause survives the loop join;
  /// the lifter bounds how long it passes Protect, preserving termination.
  static Pred join(ExprContext &Ctx, const Pred &A, const Pred &B,
                   bool Widen = false,
                   const std::vector<const Expr *> *Protect = nullptr);

  /// Partial order: does A imply B (modulo renaming of B's Fresh
  /// variables)? This is the ⊑ test of Algorithm 1 line 4 and also the
  /// entailment check of the Step-2 Hoare-triple checker.
  static bool leq(const Pred &A, const Pred &B);

  /// One failing clause of a leq(A, B) check, for diagnostics. ClauseId
  /// numbers B's clauses: 0–15 the registers (by register number), 16 the
  /// flag abstraction, then memory cells, then range clauses, in order.
  struct LeqFailure {
    int ClauseId = -1;
    std::string Clause; ///< the B clause that failed, rendered
    std::string Why;    ///< why A does not entail it
  };

  /// The first clause of B that A fails to entail, found by the very walk
  /// leq() runs and rendered. Returns nullopt when leq(A, B) holds.
  static std::optional<LeqFailure> leqExplain(const ExprContext &Ctx,
                                              const Pred &A, const Pred &B);

  /// Semantic satisfaction s ⊢ P (Definition 4.4), for the property tests.
  /// Vars values the symbolic variables and InitMem is the *initial* memory
  /// of the function (Deref leaves denote initial contents); RegVals and
  /// CurMem describe the concrete state s being tested.
  bool holds(const expr::VarValuation &Vars, const expr::MemOracle &InitMem,
             const std::array<uint64_t, x86::NumGPRs> &RegVals,
             const expr::MemOracle &CurMem) const;

  std::string str(const ExprContext &Ctx) const;

private:
  /// Take a fresh stamp from the process-wide counter. Called by every
  /// mutator; cheap (one relaxed atomic increment).
  void bumpVersion();

  /// Structural + clause-implied bounds for one linear atom. Extended adds
  /// the and-mask / shift bounds used by intervalOfForm only.
  Interval atomInterval(const Expr *A, bool Extended) const;

  bool Bottom = false;
  std::array<const Expr *, x86::NumGPRs> Regs;
  FlagState Flags;
  Cow<std::vector<MemCell>> Cells;
  Cow<std::vector<RangeClause>> Ranges;
  /// See version(). 0 = the shared stamp of all default-constructed
  /// (empty) predicates.
  uint64_t Version = 0;
  /// digest() memo, keyed by the version stamp at computation time.
  mutable uint64_t DigestVersion = ~uint64_t(0);
  mutable uint64_t DigestValue = 0;
};

} // namespace hglift::pred

#endif // HGLIFT_PRED_PRED_H
