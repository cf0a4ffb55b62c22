//===- Z3Backend.h - Z3-backed relation queries ----------------*- C++ -*-===//
//
// Optional backend answering residual necessarily-relation queries with
// Z3's bit-vector theory, as the paper does. Expressions translate
// "directly to Z3's bit-vector representations, meaning no information is
// lost in the conversion" (§3.2): variables and unresolved memory reads
// become fresh BV constants, range clauses become assertions.
//
// Compiled only when HGLIFT_WITH_Z3 is set; everything else in the solver
// works without it (the ablation bench measures the difference).
//
// The Z3 context, the translation cache and the persistent solver are
// built on the first query() or mustEqual(), not by the constructor: every
// LiftArena owns a backend, most functions settle every query in the
// cheaper tiers, and a context costs ~12 ms and ~16 MB to create.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SMT_Z3BACKEND_H
#define HGLIFT_SMT_Z3BACKEND_H

#include "pred/Pred.h"
#include "smt/Region.h"

#include <memory>

namespace hglift::smt {

class Z3Backend {
public:
  Z3Backend();
  ~Z3Backend();

  /// MustAlias / MustSep / MustEnc01 / MustEnc10 if provable, else Unknown.
  ///
  /// Persistent selects the batched-assertion mode of the portfolio's
  /// tier 2: one long-lived solver holds the predicate's range clauses as
  /// base assertions, keyed on Pred::version(). Consecutive queries under
  /// the same version reuse the asserted base (push/pop frames carry only
  /// the per-probe overlap conditions); a version change resets and
  /// re-asserts. Equal stamps guarantee identical clause content, so reuse
  /// is exact, never heuristic. Persistent=false builds a throwaway
  /// solver per query (the forced-Z3 reference replay).
  MemRel query(const Region &R0, const Region &R1, const pred::Pred &P,
               const expr::ExprContext &Ctx, bool Persistent = false);

  /// Is E0 == E1 valid under P?
  bool mustEqual(const expr::Expr *E0, const expr::Expr *E1,
                 const pred::Pred &P, const expr::ExprContext &Ctx);

private:
  struct Impl;
  /// The Z3 state, created on first use. Also enforces the
  /// translation-cache bound (checked between top-level queries, so
  /// in-flight z3::expr references are never dropped mid-translation), so
  /// it is called once at each query's entry.
  Impl &impl();

  std::unique_ptr<Impl> I;
};

} // namespace hglift::smt

#endif // HGLIFT_SMT_Z3BACKEND_H
