#ifdef HGLIFT_WITH_Z3

#include "smt/Z3Backend.h"

#include <optional>
#include <unordered_map>
#include <z3++.h>

namespace hglift::smt {

using expr::Expr;
using expr::ExprContext;
using expr::ExprKind;
using expr::Opcode;
using pred::RangeClause;
using pred::RelOp;

struct Z3Backend::Impl {
  z3::context C;
  /// Expression-translation memo. Bounded: Z3Backend::impl() clears it
  /// between top-level queries once it exceeds MaxCacheEntries, so a long
  /// lifting run over many functions cannot grow it without limit.
  std::unordered_map<const Expr *, z3::expr> Cache;
  static constexpr size_t MaxCacheEntries = 4096;
  uint64_t NameCounter = 0;
  /// Persistent-mode state: one long-lived solver whose base assertions
  /// are the range clauses of the Pred version in PersistVer. PersistValid
  /// goes false on any exception that may have left the solver with an
  /// unbalanced frame; the next persistent query then resets.
  std::optional<z3::solver> Persist;
  uint64_t PersistVer = ~uint64_t(0);
  bool PersistValid = false;

  z3::expr boolToBv1(const z3::expr &B) {
    return z3::ite(B, C.bv_val(1, 1), C.bv_val(0, 1));
  }

  z3::expr translate(const Expr *E, const ExprContext &Ctx) {
    auto It = Cache.find(E);
    if (It != Cache.end())
      return It->second;
    z3::expr R = translateUncached(E, Ctx);
    Cache.emplace(E, R);
    return R;
  }

  z3::expr translateUncached(const Expr *E, const ExprContext &Ctx) {
    unsigned W = E->width();
    switch (E->kind()) {
    case ExprKind::Const:
      return C.bv_val(static_cast<uint64_t>(E->constVal()), W);
    case ExprKind::Var: {
      std::string Name = "v_" + Ctx.varInfo(E->varId()).Name + "_" +
                         std::to_string(W);
      return C.bv_const(Name.c_str(), W);
    }
    case ExprKind::Deref: {
      std::string Name = "deref_" + std::to_string(
                                        reinterpret_cast<uintptr_t>(E));
      return C.bv_const(Name.c_str(), W);
    }
    case ExprKind::Op:
      break;
    }

    const auto &Ops = E->operands();
    auto A = [&](unsigned I) { return translate(Ops[I], Ctx); };

    switch (E->opcode()) {
    case Opcode::Add:
      return A(0) + A(1);
    case Opcode::Sub:
      return A(0) - A(1);
    case Opcode::Mul:
      return A(0) * A(1);
    case Opcode::UDiv:
      return z3::udiv(A(0), A(1));
    case Opcode::URem:
      return z3::urem(A(0), A(1));
    case Opcode::SDiv:
      return A(0) / A(1);
    case Opcode::SRem:
      return z3::srem(A(0), A(1));
    case Opcode::And:
      return A(0) & A(1);
    case Opcode::Or:
      return A(0) | A(1);
    case Opcode::Xor:
      return A(0) ^ A(1);
    case Opcode::Shl:
      return z3::shl(A(0), z3::urem(A(1), C.bv_val(W, W)));
    case Opcode::LShr:
      return z3::lshr(A(0), z3::urem(A(1), C.bv_val(W, W)));
    case Opcode::AShr:
      return z3::ashr(A(0), z3::urem(A(1), C.bv_val(W, W)));
    case Opcode::Not:
      return ~A(0);
    case Opcode::Neg:
      return -A(0);
    case Opcode::ZExt:
      return z3::zext(A(0), W - Ops[0]->width());
    case Opcode::SExt:
      return z3::sext(A(0), W - Ops[0]->width());
    case Opcode::Trunc:
      return A(0).extract(W - 1, 0);
    case Opcode::Eq:
      return boolToBv1(A(0) == A(1));
    case Opcode::Ne:
      return boolToBv1(A(0) != A(1));
    case Opcode::ULt:
      return boolToBv1(z3::ult(A(0), A(1)));
    case Opcode::ULe:
      return boolToBv1(z3::ule(A(0), A(1)));
    case Opcode::SLt:
      return boolToBv1(A(0) < A(1));
    case Opcode::SLe:
      return boolToBv1(A(0) <= A(1));
    case Opcode::Ite:
      return z3::ite(A(0) == C.bv_val(1, 1), A(1), A(2));
    }
    return C.bv_const("unknown", W);
  }

  z3::expr rangeConstraint(const RangeClause &RC, const ExprContext &Ctx) {
    z3::expr E = translate(RC.E, Ctx);
    z3::expr B = C.bv_val(static_cast<uint64_t>(RC.Bound), RC.E->width());
    switch (RC.Op) {
    case RelOp::Eq:
      return E == B;
    case RelOp::Ne:
      return E != B;
    case RelOp::ULt:
      return z3::ult(E, B);
    case RelOp::ULe:
      return z3::ule(E, B);
    case RelOp::UGe:
      return z3::uge(E, B);
    case RelOp::UGt:
      return z3::ugt(E, B);
    case RelOp::SLt:
      return E < B;
    case RelOp::SLe:
      return E <= B;
    case RelOp::SGe:
      return E >= B;
    case RelOp::SGt:
      return E > B;
    }
    return C.bool_val(true);
  }
};

Z3Backend::Z3Backend() = default;
Z3Backend::~Z3Backend() = default;

Z3Backend::Impl &Z3Backend::impl() {
  if (!I)
    I = std::make_unique<Impl>();
  else if (I->Cache.size() > Impl::MaxCacheEntries)
    I->Cache.clear();
  return *I;
}

MemRel Z3Backend::query(const Region &R0, const Region &R1,
                        const pred::Pred &P, const ExprContext &Ctx,
                        bool Persistent) {
  Impl &Z = impl();
  try {
    // Pick the solver. Persistent mode keeps one solver alive and only
    // re-asserts the predicate's range clauses when the version stamp
    // changes (equal stamps imply identical clause content, so reuse is
    // exact); the throwaway path builds a fresh solver per query.
    std::optional<z3::solver> Fresh;
    z3::solver *SP = nullptr;
    if (Persistent) {
      if (!Z.Persist) {
        Z.Persist.emplace(Z.C);
        Z.PersistValid = false;
      }
      SP = &*Z.Persist;
      if (!Z.PersistValid || Z.PersistVer != P.version()) {
        Z.PersistValid = false;
        SP->reset();
        SP->set("timeout", 200u); // per-check millisecond budget
        for (const RangeClause &RC : P.ranges())
          SP->add(Z.rangeConstraint(RC, Ctx));
        Z.PersistVer = P.version();
        Z.PersistValid = true;
      }
    } else {
      Fresh.emplace(Z.C);
      SP = &*Fresh;
      SP->set("timeout", 200u); // per-check millisecond budget
      for (const RangeClause &RC : P.ranges())
        SP->add(Z.rangeConstraint(RC, Ctx));
    }
    z3::solver &S = *SP;

    z3::expr A0 = Z.translate(R0.Addr, Ctx);
    z3::expr A1 = Z.translate(R1.Addr, Ctx);
    z3::expr S0 = Z.C.bv_val(static_cast<uint64_t>(R0.Size), 64);
    z3::expr S1 = Z.C.bv_val(static_cast<uint64_t>(R1.Size), 64);

    // Each probe runs in its own push/pop frame so the base assertions
    // survive for the next probe — and, in persistent mode, for the next
    // query under the same predicate version.
    auto ProbeUnsat = [&](const z3::expr &Probe) {
      S.push();
      S.add(Probe);
      bool Unsat = S.check() == z3::unsat;
      S.pop();
      return Unsat;
    };

    // Exact modular overlap condition:
    //   overlap <=> (a0 - a1 <u s1) \/ (a1 - a0 <u s0)
    if (ProbeUnsat(z3::ult(A0 - A1, S1) || z3::ult(A1 - A0, S0)))
      return MemRel::MustSep;
    if (R0.Size == R1.Size && ProbeUnsat(A0 != A1))
      return MemRel::MustAlias;
    // Enclosure (modular form): a0 - a1 <=u s1 - s0.
    if (R0.Size < R1.Size && ProbeUnsat(!z3::ule(A0 - A1, S1 - S0)))
      return MemRel::MustEnc01;
    if (R1.Size < R0.Size && ProbeUnsat(!z3::ule(A1 - A0, S0 - S1)))
      return MemRel::MustEnc10;
    return MemRel::Unknown;
  } catch (const z3::exception &) {
    // A mid-probe failure may leave an unbalanced frame on the persistent
    // solver; force a reset on its next use.
    Z.PersistValid = false;
    return MemRel::Unknown;
  }
}

bool Z3Backend::mustEqual(const Expr *E0, const Expr *E1, const pred::Pred &P,
                          const ExprContext &Ctx) {
  Impl &Z = impl();
  try {
    z3::solver S(Z.C);
    S.set("timeout", 200u);
    for (const RangeClause &RC : P.ranges())
      S.add(Z.rangeConstraint(RC, Ctx));
    S.add(Z.translate(E0, Ctx) != Z.translate(E1, Ctx));
    return S.check() == z3::unsat;
  } catch (const z3::exception &) {
    return false;
  }
}

} // namespace hglift::smt

#endif // HGLIFT_WITH_Z3
