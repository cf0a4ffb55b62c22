#include "pred/Pred.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <unordered_map>

namespace hglift::pred {

// --- version stamps ----------------------------------------------------------

namespace {
/// Process-wide stamp source. Stamp *values* are only ever compared for
/// equality (never ordered or persisted), so cross-thread interleaving of
/// increments cannot change any observable behavior — each function lift
/// sees a schedule-independent equality structure over its own stamps.
std::atomic<uint64_t> VersionCounter{1};

inline uint64_t mix64(uint64_t H, uint64_t V) {
  V *= 0x9e3779b97f4a7c15ULL;
  V ^= V >> 29;
  H ^= V;
  return H * 0xbf58476d1ce4e5b9ULL + 1;
}
} // namespace

void Pred::bumpVersion() {
  Version = VersionCounter.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Pred::digest() const {
  if (DigestVersion == Version)
    return DigestValue;
  uint64_t H = Bottom ? 0x5eed : 0x1234;
  for (unsigned I = 0; I < x86::NumGPRs; ++I)
    H = mix64(H, Regs[I] ? Regs[I]->hashValue() : I + 1);
  H = mix64(H, static_cast<uint64_t>(Flags.K) * 131 + Flags.Width);
  if (Flags.L)
    H = mix64(H, Flags.L->hashValue());
  if (Flags.R)
    H = mix64(H, Flags.R->hashValue());
  for (const MemCell &C : Cells) {
    H = mix64(H, C.Addr->hashValue());
    H = mix64(H, C.Size);
    H = mix64(H, C.Val->hashValue());
  }
  for (const RangeClause &C : Ranges) {
    H = mix64(H, C.E->hashValue());
    H = mix64(H, static_cast<uint64_t>(C.Op) * 0x101 + 0x57);
    H = mix64(H, C.Bound);
  }
  DigestVersion = Version;
  DigestValue = H;
  return H;
}

using expr::ExprKind;
using expr::Opcode;
using expr::VarClass;
using x86::Cond;
using x86::Reg;

namespace {
/// Soft cap on stored range clauses; excess clauses are dropped, which only
/// weakens the predicate.
constexpr size_t MaxRanges = 64;
} // namespace

const char *relOpName(RelOp Op) {
  switch (Op) {
  case RelOp::Eq:
    return "==";
  case RelOp::Ne:
    return "!=";
  case RelOp::ULt:
    return "<u";
  case RelOp::ULe:
    return "<=u";
  case RelOp::UGe:
    return ">=u";
  case RelOp::UGt:
    return ">u";
  case RelOp::SLt:
    return "<s";
  case RelOp::SLe:
    return "<=s";
  case RelOp::SGe:
    return ">=s";
  case RelOp::SGt:
    return ">s";
  }
  return "?";
}

bool relHolds(RelOp Op, uint64_t V, uint64_t Bound) {
  int64_t S = static_cast<int64_t>(V), SB = static_cast<int64_t>(Bound);
  switch (Op) {
  case RelOp::Eq:
    return V == Bound;
  case RelOp::Ne:
    return V != Bound;
  case RelOp::ULt:
    return V < Bound;
  case RelOp::ULe:
    return V <= Bound;
  case RelOp::UGe:
    return V >= Bound;
  case RelOp::UGt:
    return V > Bound;
  case RelOp::SLt:
    return S < SB;
  case RelOp::SLe:
    return S <= SB;
  case RelOp::SGe:
    return S >= SB;
  case RelOp::SGt:
    return S > SB;
  }
  return true;
}

Pred Pred::entry(ExprContext &Ctx, const Expr *RetSymTop) {
  Pred P;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    Reg R = x86::regFromNum(I);
    std::string Name = x86::regName(R) + "0";
    VarClass Cls = (R == Reg::RSP) ? VarClass::StackBase : VarClass::InitReg;
    P.Regs[I] = Ctx.mkVar(Cls, Name, 64);
  }
  const Expr *Rsp0 = P.Regs[x86::regNum(Reg::RSP)];
  const Expr *Ret =
      RetSymTop ? RetSymTop : Ctx.mkVar(VarClass::RetAddr, "a_r", 64);
  P.Cells.mut().push_back(MemCell{Rsp0, 8, Ret});
  P.bumpVersion();
  return P;
}

// --- registers --------------------------------------------------------------

const Expr *Pred::readReg(ExprContext &Ctx, Reg R, unsigned SizeBytes,
                          bool HighByte) const {
  const Expr *Full = Regs[x86::regNum(R)];
  if (SizeBytes == 8)
    return Full;
  if (HighByte) {
    const Expr *Shifted =
        Ctx.mkBin(Opcode::LShr, Full, Ctx.mkConst(8, 64));
    return Ctx.mkTrunc(Shifted, 8);
  }
  return Ctx.mkTrunc(Full, SizeBytes * 8);
}

void Pred::writeReg(ExprContext &Ctx, Reg R, unsigned SizeBytes, bool HighByte,
                    const Expr *V) {
  bumpVersion();
  unsigned N = x86::regNum(R);
  const Expr *Old = Regs[N];
  switch (SizeBytes) {
  case 8:
    Regs[N] = V;
    return;
  case 4:
    // 32-bit writes zero the upper half.
    Regs[N] = Ctx.mkZExt(V, 64);
    return;
  case 2: {
    const Expr *Kept = Ctx.mkBin(Opcode::And, Old,
                                 Ctx.mkConst(~uint64_t(0xffff), 64));
    Regs[N] = Ctx.mkBin(Opcode::Or, Kept, Ctx.mkZExt(V, 64));
    return;
  }
  case 1: {
    uint64_t Mask = HighByte ? uint64_t(0xff00) : uint64_t(0xff);
    const Expr *Kept =
        Ctx.mkBin(Opcode::And, Old, Ctx.mkConst(~Mask, 64));
    const Expr *New = Ctx.mkZExt(V, 64);
    if (HighByte)
      New = Ctx.mkBin(Opcode::Shl, New, Ctx.mkConst(8, 64));
    Regs[N] = Ctx.mkBin(Opcode::Or, Kept, New);
    return;
  }
  default:
    Regs[N] = Ctx.mkFresh("reg");
  }
}

// --- flags ------------------------------------------------------------------

void Pred::setFlagsCmp(const Expr *L, const Expr *R, unsigned Width) {
  Flags = FlagState{FlagState::Kind::Cmp, L, R, static_cast<uint8_t>(Width)};
  bumpVersion();
}

void Pred::setFlagsTest(const Expr *L, const Expr *R, unsigned Width) {
  Flags = FlagState{FlagState::Kind::Test, L, R, static_cast<uint8_t>(Width)};
  bumpVersion();
}

void Pred::setFlagsRes(const Expr *Res, unsigned Width) {
  Flags =
      FlagState{FlagState::Kind::Res, Res, nullptr, static_cast<uint8_t>(Width)};
  bumpVersion();
}

void Pred::setFlagsZeroOf(const Expr *L, unsigned Width) {
  Flags = FlagState{FlagState::Kind::ZeroOf, L, nullptr,
                    static_cast<uint8_t>(Width)};
  bumpVersion();
}

const Expr *Pred::condExpr(ExprContext &Ctx, Cond CC) const {
  auto NotB = [&](const Expr *B) {
    return B ? Ctx.mkBin(Opcode::Xor, B, Ctx.mkTrue()) : nullptr;
  };

  if (Flags.K == FlagState::Kind::Cmp) {
    const Expr *L = Flags.L, *R = Flags.R;
    unsigned W = Flags.Width;
    switch (CC) {
    case Cond::E:
      return Ctx.mkOp(Opcode::Eq, {L, R}, 1);
    case Cond::NE:
      return Ctx.mkOp(Opcode::Ne, {L, R}, 1);
    case Cond::B:
      return Ctx.mkOp(Opcode::ULt, {L, R}, 1);
    case Cond::AE:
      return NotB(Ctx.mkOp(Opcode::ULt, {L, R}, 1));
    case Cond::BE:
      return Ctx.mkOp(Opcode::ULe, {L, R}, 1);
    case Cond::A:
      return NotB(Ctx.mkOp(Opcode::ULe, {L, R}, 1));
    case Cond::L:
      return Ctx.mkOp(Opcode::SLt, {L, R}, 1);
    case Cond::GE:
      return NotB(Ctx.mkOp(Opcode::SLt, {L, R}, 1));
    case Cond::LE:
      return Ctx.mkOp(Opcode::SLe, {L, R}, 1);
    case Cond::G:
      return NotB(Ctx.mkOp(Opcode::SLe, {L, R}, 1));
    case Cond::S:
      // SF = sign of (L - R); not the same as L <s R under overflow.
      return Ctx.mkOp(Opcode::SLt,
                      {Ctx.mkOp(Opcode::Sub, {L, R}, W), Ctx.mkConst(0, W)},
                      1);
    case Cond::NS:
      return NotB(condExpr(Ctx, Cond::S));
    default:
      return nullptr; // O/NO/P/NP unknown
    }
  }

  if (Flags.K == FlagState::Kind::Test) {
    unsigned W = Flags.Width;
    const Expr *AndE = Ctx.mkOp(Opcode::And, {Flags.L, Flags.R}, W);
    const Expr *Zero = Ctx.mkConst(0, W);
    switch (CC) {
    case Cond::E:
      return Ctx.mkOp(Opcode::Eq, {AndE, Zero}, 1);
    case Cond::NE:
      return Ctx.mkOp(Opcode::Ne, {AndE, Zero}, 1);
    case Cond::S:
      return Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1);
    case Cond::NS:
      return NotB(Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1));
    // After test: CF = OF = 0.
    case Cond::B:
      return Ctx.mkFalse();
    case Cond::AE:
      return Ctx.mkTrue();
    case Cond::BE: // CF | ZF = ZF
      return Ctx.mkOp(Opcode::Eq, {AndE, Zero}, 1);
    case Cond::A: // !CF & !ZF
      return Ctx.mkOp(Opcode::Ne, {AndE, Zero}, 1);
    case Cond::L: // SF != OF = SF
      return Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1);
    case Cond::GE:
      return NotB(Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1));
    case Cond::LE: { // ZF | SF
      const Expr *Z = Ctx.mkOp(Opcode::Eq, {AndE, Zero}, 1);
      const Expr *S = Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1);
      return Ctx.mkOp(Opcode::Or, {Z, S}, 1);
    }
    case Cond::G: {
      const Expr *NZ = Ctx.mkOp(Opcode::Ne, {AndE, Zero}, 1);
      const Expr *NS = NotB(Ctx.mkOp(Opcode::SLt, {AndE, Zero}, 1));
      return Ctx.mkOp(Opcode::And, {NZ, NS}, 1);
    }
    default:
      return nullptr;
    }
  }

  if (Flags.K == FlagState::Kind::ZeroOf) {
    unsigned W = Flags.Width;
    const Expr *Zero = Ctx.mkConst(0, W);
    switch (CC) {
    case Cond::E:
      return Ctx.mkOp(Opcode::Eq, {Flags.L, Zero}, 1);
    case Cond::NE:
      return Ctx.mkOp(Opcode::Ne, {Flags.L, Zero}, 1);
    default:
      return nullptr;
    }
  }

  if (Flags.K == FlagState::Kind::Res) {
    unsigned W = Flags.Width;
    const Expr *Zero = Ctx.mkConst(0, W);
    switch (CC) {
    case Cond::E:
      return Ctx.mkOp(Opcode::Eq, {Flags.L, Zero}, 1);
    case Cond::NE:
      return Ctx.mkOp(Opcode::Ne, {Flags.L, Zero}, 1);
    case Cond::S:
      return Ctx.mkOp(Opcode::SLt, {Flags.L, Zero}, 1);
    case Cond::NS:
      return NotB(Ctx.mkOp(Opcode::SLt, {Flags.L, Zero}, 1));
    default:
      return nullptr;
    }
  }

  return nullptr;
}

// --- memory clauses ----------------------------------------------------------

const MemCell *Pred::findCell(const Expr *Addr, uint32_t Size) const {
  for (const MemCell &C : Cells)
    if (C.Addr == Addr && C.Size == Size)
      return &C;
  return nullptr;
}

// Mutators find what they change through the shared view first and call
// mut() (which may clone the buffer) only when something does change.

void Pred::setCell(const Expr *Addr, uint32_t Size, const Expr *Val) {
  for (size_t I = 0; I < Cells.size(); ++I) {
    const MemCell &C = Cells[I];
    if (C.Addr == Addr && C.Size == Size) {
      if (C.Val == Val)
        return; // content unchanged; keep the stamp (and cache entries)
      Cells.mut()[I].Val = Val;
      bumpVersion();
      return;
    }
  }
  Cells.mut().push_back(MemCell{Addr, Size, Val});
  bumpVersion();
}

void Pred::removeCell(const Expr *Addr, uint32_t Size) {
  filterCells([&](const MemCell &C) {
    return C.Addr != Addr || C.Size != Size;
  });
}

void Pred::filterCells(const std::function<bool(const MemCell &)> &Keep) {
  // Keep runs exactly once per cell, in order (it may query the solver).
  size_t N = Cells.size(), First = 0;
  while (First < N && Keep(Cells[First]))
    ++First;
  if (First == N)
    return;
  std::vector<MemCell> &V = Cells.mut();
  size_t Out = First;
  for (size_t I = First + 1; I < N; ++I)
    if (Keep(V[I]))
      V[Out++] = V[I];
  V.resize(Out);
  bumpVersion();
}

// --- range clauses ------------------------------------------------------------

void Pred::addRange(const Expr *E, RelOp Op, uint64_t Bound) {
  if (E->isConst())
    return; // either trivially true or the state is unreachable; keep simple
  RangeClause C{E, Op, Bound};
  for (const RangeClause &Existing : Ranges)
    if (Existing == C)
      return;
  if (Ranges.size() < MaxRanges) {
    Ranges.mut().push_back(C);
    bumpVersion();
  }
}

void Pred::clearRangesFor(const Expr *E) {
  auto On = [&](const RangeClause &C) { return C.E == E; };
  if (std::none_of(Ranges.begin(), Ranges.end(), On))
    return;
  std::vector<RangeClause> &V = Ranges.mut();
  V.erase(std::remove_if(V.begin(), V.end(), On), V.end());
  bumpVersion();
}

namespace {

/// Signed interval implied by a single clause.
Interval clauseInterval(RelOp Op, uint64_t Bound) {
  int64_t SB = static_cast<int64_t>(Bound);
  switch (Op) {
  case RelOp::Eq:
    return Interval(SB);
  case RelOp::ULt:
    // x <u B with B representable as nonneg signed: x in [0, B-1].
    if (Bound != 0 && Bound <= static_cast<uint64_t>(INT64_MAX))
      return Interval(0, SB - 1);
    return Interval::top();
  case RelOp::ULe:
    if (Bound <= static_cast<uint64_t>(INT64_MAX))
      return Interval(0, SB);
    return Interval::top();
  case RelOp::UGe:
  case RelOp::UGt:
    // x >=u B constrains the unsigned view only; the signed interval wraps,
    // so nothing useful without a matching upper bound.
    return Interval::top();
  case RelOp::SLt:
    if (SB == INT64_MIN)
      return Interval::empty();
    return Interval(INT64_MIN, SB - 1);
  case RelOp::SLe:
    return Interval(INT64_MIN, SB);
  case RelOp::SGe:
    return Interval(SB, INT64_MAX);
  case RelOp::SGt:
    if (SB == INT64_MAX)
      return Interval::empty();
    return Interval(SB + 1, INT64_MAX);
  case RelOp::Ne:
    return Interval::top();
  }
  return Interval::top();
}

} // namespace

Interval Pred::atomInterval(const Expr *A, bool Extended) const {
  Interval I = Interval::top();
  // A zero-extension from width w is bounded by [0, 2^w - 1], and clauses
  // on the inner operand carry over (zext preserves the unsigned value).
  if (A->isOp() && A->opcode() == Opcode::ZExt &&
      A->operand(0)->width() < 64) {
    I = I.meet(Interval(
        0, static_cast<int64_t>(
               (uint64_t(1) << A->operand(0)->width()) - 1)));
    for (const RangeClause &C : Ranges)
      if (C.E == A->operand(0) &&
          (C.Op == RelOp::ULt || C.Op == RelOp::ULe || C.Op == RelOp::Eq))
        I = I.meet(clauseInterval(C.Op, C.Bound));
  }
  if (A->isDeref() && A->derefSize() < 8)
    I = I.meet(Interval(
        0, static_cast<int64_t>((uint64_t(1) << (A->derefSize() * 8)) - 1)));
  if (Extended && A->isOp()) {
    // Structural width bounds compilers produce for index arithmetic.
    // Masking with a nonneg constant bounds by the mask; an unsigned right
    // shift by k leaves at most W-k significant bits.
    if (A->opcode() == Opcode::And) {
      for (unsigned Op = 0; Op < 2; ++Op)
        if (A->operand(Op)->isConst()) {
          uint64_t Mask = A->operand(Op)->constVal();
          if (Mask <= static_cast<uint64_t>(INT64_MAX))
            I = I.meet(Interval(0, static_cast<int64_t>(Mask)));
        }
    } else if (A->opcode() == Opcode::LShr && A->operand(1)->isConst()) {
      uint64_t K = A->operand(1)->constVal();
      unsigned W = A->width();
      if (K >= W)
        I = I.meet(Interval(0, 0));
      else if (W - K < 64)
        I = I.meet(
            Interval(0, static_cast<int64_t>((uint64_t(1) << (W - K)) - 1)));
    }
  }
  for (const RangeClause &C : Ranges)
    if (C.E == A)
      I = I.meet(clauseInterval(C.Op, C.Bound));
  return I;
}

Interval Pred::intervalOf(const Expr *E) const {
  if (E->isConst())
    return Interval(expr::signExtend(E->constVal(), E->width()));

  // Direct clauses on E itself.
  Interval Direct = atomInterval(E, /*Extended=*/false);

  // Linear decomposition.
  expr::LinearForm LF = expr::linearize(E);
  Interval Lin(LF.Constant);
  for (auto &[Coeff, Atom] : LF.Terms) {
    if (Lin.isTop())
      break;
    Lin = Lin.add(atomInterval(Atom, /*Extended=*/false).mul(Coeff));
  }
  return Direct.meet(Lin);
}

Interval Pred::intervalOfForm(const expr::LinearForm &LF) const {
  Interval Lin(LF.Constant);
  for (auto &[Coeff, Atom] : LF.Terms) {
    if (Lin.isTop())
      break;
    Lin = Lin.add(atomInterval(Atom, /*Extended=*/true).mul(Coeff));
  }
  // Generalized direct-clause matching: a range clause whose LHS
  // linearizes to the same term list constrains the form directly — from
  // E = Terms + cE and LF = Terms + cL follows LF = E + (cL - cE). With
  // cE = 0 and a single term this is exactly intervalOf's "clause keyed on
  // this expression" check; the general case also catches clauses recorded
  // on a displaced form of the same address difference.
  if (!LF.Terms.empty()) {
    for (const RangeClause &C : Ranges) {
      if (Lin.isPoint())
        break;
      Interval CI = clauseInterval(C.Op, C.Bound);
      if (CI.isTop())
        continue;
      expr::LinearForm CF = expr::linearize(C.E);
      if (CF.Terms == LF.Terms) {
        // Wrapping displacement (C++20 two's complement); Interval::add
        // returns top on any possible re-overflow.
        int64_t Delta = static_cast<int64_t>(
            static_cast<uint64_t>(LF.Constant) -
            static_cast<uint64_t>(CF.Constant));
        Lin = Lin.meet(CI.add(Interval(Delta)));
      }
    }
  }
  return Lin;
}

bool Pred::hasEqRange() const {
  for (const RangeClause &C : Ranges)
    if (C.Op == RelOp::Eq)
      return true;
  return false;
}

std::optional<uint64_t> Pred::unsignedUpperBound(const Expr *E) const {
  if (E->isConst())
    return E->constVal();
  std::optional<uint64_t> Best;
  auto Consider = [&](uint64_t B) {
    if (!Best || B < *Best)
      Best = B;
  };
  auto Scan = [&](const Expr *X) {
    for (const RangeClause &C : Ranges) {
      if (C.E != X)
        continue;
      switch (C.Op) {
      case RelOp::Eq:
        Consider(C.Bound);
        break;
      case RelOp::ULt:
        if (C.Bound != 0)
          Consider(C.Bound - 1);
        break;
      case RelOp::ULe:
        Consider(C.Bound);
        break;
      default:
        break;
      }
    }
  };
  // A zero-extension preserves the unsigned value: clauses on the inner
  // operand bound the extension too (the jump-table index is typically a
  // 32-bit comparison zero-extended into the 64-bit address).
  for (const Expr *X = E;;) {
    Scan(X);
    if (X->isOp() && X->opcode() == Opcode::ZExt)
      X = X->operand(0);
    else
      break;
  }
  if (!Best) {
    // Fall back to the signed interval if it proves non-negativity.
    Interval I = intervalOf(E);
    if (!I.isTop() && !I.isEmpty() && I.lo() >= 0)
      Best = static_cast<uint64_t>(I.hi());
  }
  return Best;
}

std::vector<uint64_t> Pred::witnessSeeds(const Expr *Var) const {
  std::vector<uint64_t> Out;
  if (!Var)
    return Out;

  std::function<bool(const Expr *)> Mentions = [&](const Expr *E) {
    if (E == Var)
      return true;
    for (const Expr *O : E->operands())
      if (Mentions(O))
        return true;
    return false;
  };

  // Valuation that maps Var to X and every other variable to 0. Deref
  // leaves have no memory oracle here, so affine probing fails (and falls
  // back to raw boundaries) whenever the clause reads memory.
  auto At = [&](const Expr *E, uint64_t X) -> std::optional<uint64_t> {
    uint32_t Id = Var->varId();
    return expr::evalExpr(
        E, [&](uint32_t VId) -> uint64_t { return VId == Id ? X : 0; });
  };

  for (const RangeClause &C : Ranges) {
    if (!Mentions(C.E))
      continue;
    uint64_t Targets[3] = {C.Bound - 1, C.Bound, C.Bound + 1};
    bool Solved = false;
    if (Var->isVar()) {
      auto F0 = At(C.E, 0), F1 = At(C.E, 1);
      if (F0 && F1) {
        uint64_t D = *F1 - *F0; // wrapping slope of the affine probe
        if (D != 0) {
          // Solve D·x ≡ Delta (mod 2^64): divide out the power of two,
          // then multiply by the odd part's inverse (Newton iteration).
          Solved = true;
          int Tz = std::countr_zero(D);
          uint64_t Odd = D >> Tz, Inv = Odd;
          for (int It = 0; It < 5; ++It)
            Inv *= 2 - Odd * Inv;
          for (uint64_t T : Targets) {
            uint64_t Delta = T - *F0;
            if (Tz == 0 || std::countr_zero(Delta) >= Tz || Delta == 0)
              Out.push_back((Delta >> Tz) * Inv);
          }
        }
      }
    }
    if (!Solved)
      for (uint64_t T : Targets)
        Out.push_back(T);
  }

  Interval I = intervalOf(Var);
  if (!I.isTop() && !I.isEmpty()) {
    Out.push_back(static_cast<uint64_t>(I.lo()));
    Out.push_back(static_cast<uint64_t>(I.hi()));
    Out.push_back(static_cast<uint64_t>(I.lo()) - 1);
    Out.push_back(static_cast<uint64_t>(I.hi()) + 1);
  }

  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

// --- join ---------------------------------------------------------------------

Pred Pred::join(ExprContext &Ctx, const Pred &A, const Pred &B, bool Widen,
                const std::vector<const Expr *> *Protect) {
  if (A.Bottom)
    return B;
  if (B.Bottom)
    return A;

  Pred J;

  // Registers: keep agreeing clauses, range-abstract disagreeing ones.
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    const Expr *VA = A.Regs[I], *VB = B.Regs[I];
    if (VA == VB) {
      J.Regs[I] = VA;
      continue;
    }
    const Expr *F = Ctx.mkFresh("j_" + x86::regName(x86::regFromNum(I)));
    J.Regs[I] = F;
    if (!Widen) {
      Interval IA = A.intervalOf(VA), IB = B.intervalOf(VB);
      Interval U = IA.join(IB);
      if (!U.isTop() && !U.isEmpty()) {
        if (U.lo() != INT64_MIN)
          J.addRange(F, RelOp::SGe, static_cast<uint64_t>(U.lo()));
        if (U.hi() != INT64_MAX)
          J.addRange(F, RelOp::SLe, static_cast<uint64_t>(U.hi()));
      }
    }
  }

  // Flags: must agree exactly.
  if (A.Flags == B.Flags)
    J.Flags = A.Flags;

  // Memory clauses: keep cells both sides agree on.
  std::vector<MemCell> Kept;
  for (const MemCell &CA : A.Cells) {
    const MemCell *CB = B.findCell(CA.Addr, CA.Size);
    if (CB && CB->Val == CA.Val)
      Kept.push_back(CA);
  }
  J.Cells = std::move(Kept);

  // Range clauses: keep clauses identical in both; otherwise interval-join
  // per expression.
  if (!Widen) {
    for (const RangeClause &C : A.Ranges) {
      bool InB = std::find(B.Ranges.begin(), B.Ranges.end(), C) !=
                 B.Ranges.end();
      if (InB) {
        J.addRange(C.E, C.Op, C.Bound);
        continue;
      }
      Interval U = A.intervalOf(C.E).join(B.intervalOf(C.E));
      if (!U.isTop() && !U.isEmpty()) {
        if (U.lo() != INT64_MIN)
          J.addRange(C.E, RelOp::SGe, static_cast<uint64_t>(U.lo()));
        if (U.hi() != INT64_MAX)
          J.addRange(C.E, RelOp::SLe, static_cast<uint64_t>(U.hi()));
      }
    }
  } else if (Protect) {
    // Widening normally drops every range clause. The VSA retry loop asks
    // for specific expressions (unbounded jump-table indices) to keep
    // their interval-join bound anyway, so the bounding `cmp`/`ja` guard
    // of a table reached through a widened loop is not erased.
    for (const Expr *E : *Protect) {
      Interval U = A.intervalOf(E).join(B.intervalOf(E));
      if (!U.isTop() && !U.isEmpty()) {
        if (U.lo() != INT64_MIN)
          J.addRange(E, RelOp::SGe, static_cast<uint64_t>(U.lo()));
        if (U.hi() != INT64_MAX)
          J.addRange(E, RelOp::SLe, static_cast<uint64_t>(U.hi()));
      }
    }
  }

  J.bumpVersion();
  return J;
}

// --- partial order --------------------------------------------------------------

namespace {

/// Matching-based implication: try to find a substitution of B-side Fresh
/// variables making EB equal to EA.
struct Matcher {
  std::unordered_map<const Expr *, const Expr *> Binding;
  /// Keys in the order match() bound them, so that a failed candidate's
  /// bindings can be undone instead of snapshotting Binding before each
  /// attempt.
  std::vector<const Expr *> Trail;

  /// Does B's cell CB match A's cell CA under the current binding? On
  /// failure every binding the attempt made is undone.
  bool matchCell(const MemCell &CB, const MemCell &CA) {
    size_t Mark = Trail.size();
    if (match(CB.Addr, CA.Addr) && match(CB.Val, CA.Val))
      return true;
    for (; Trail.size() > Mark; Trail.pop_back())
      Binding.erase(Trail.back());
    return false;
  }

  bool match(const Expr *EB, const Expr *EA) {
    if (EB == EA)
      return true;
    if (EB->isVar() && EB->hasFreshLeaf()) {
      auto It = Binding.find(EB);
      if (It != Binding.end())
        return It->second == EA;
      if (EB->width() != EA->width())
        return false;
      Binding.emplace(EB, EA);
      Trail.push_back(EB);
      return true;
    }
    if (EB->kind() != EA->kind() || EB->width() != EA->width())
      return false;
    switch (EB->kind()) {
    case ExprKind::Const:
    case ExprKind::Var:
      return false; // pointer equality already failed
    case ExprKind::Deref:
      return EB->derefSize() == EA->derefSize() &&
             match(EB->derefAddr(), EA->derefAddr());
    case ExprKind::Op: {
      if (EB->opcode() != EA->opcode() ||
          EB->operands().size() != EA->operands().size())
        return false;
      for (size_t I = 0; I < EB->operands().size(); ++I)
        if (!match(EB->operand(I), EA->operand(I)))
          return false;
      return true;
    }
    }
    return false;
  }

  /// Does EB contain a variable that this matcher has bound (i.e. a
  /// B-side-only fresh variable standing for an A expression)? Fresh
  /// leaves *shared* between both states (external-call results, havoc
  /// values created before the join) are not bound and can be evaluated
  /// in A directly.
  bool containsBoundVar(const Expr *EB) const {
    if (EB->isVar())
      return Binding.count(EB) != 0;
    if (!EB->hasFreshLeaf())
      return false;
    if (EB->isOp() || EB->isDeref())
      for (const Expr *Op : EB->operands())
        if (containsBoundVar(Op))
          return true;
    return false;
  }

  /// Signed interval of EB after substitution, evaluated in A.
  Interval intervalInA(const Pred &A, const Expr *EB) {
    if (EB->isConst())
      return Interval(expr::signExtend(EB->constVal(), EB->width()));
    if (EB->isVar()) {
      auto It = Binding.find(EB);
      return A.intervalOf(It != Binding.end() ? It->second : EB);
    }
    // Bound-variable-free expressions are shared with A verbatim: consult
    // A's clauses on the whole expression first (they may be attached to
    // the compound term, not its parts).
    if (!containsBoundVar(EB))
      return A.intervalOf(EB);
    if (EB->isOp()) {
      switch (EB->opcode()) {
      case Opcode::Add:
        return intervalInA(A, EB->operand(0))
            .add(intervalInA(A, EB->operand(1)));
      case Opcode::Sub:
        return intervalInA(A, EB->operand(0))
            .sub(intervalInA(A, EB->operand(1)));
      case Opcode::Mul:
        if (EB->operand(1)->isConst())
          return intervalInA(A, EB->operand(0))
              .mul(expr::signExtend(EB->operand(1)->constVal(),
                                    EB->width()));
        break;
      default:
        break;
      }
    }
    if (!containsBoundVar(EB))
      return A.intervalOf(EB);
    return Interval::top();
  }
};

/// The first clause of B that A fails to entail: its id in
/// Pred::LeqFailure's numbering (-1 when B is bottom) and, for a range
/// clause, the interval of its expression in A.
struct LeqMiss {
  int ClauseId = -1;
  Interval InA = Interval::top();
};

/// The one walk behind leq() and leqExplain(). One Matcher accumulates
/// bindings across B's clauses in order, so a clause is only meaningful
/// in the context of the clauses before it; the walk stops at the first
/// failure.
std::optional<LeqMiss> firstMiss(const Pred &A, const Pred &B) {
  if (A.isBottom())
    return std::nullopt;
  if (B.isBottom())
    return LeqMiss{};

  Matcher M;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    Reg R = x86::regFromNum(I);
    if (!M.match(B.reg64(R), A.reg64(R)))
      return LeqMiss{static_cast<int>(I)};
  }

  int Id = static_cast<int>(x86::NumGPRs); // 16: the flag clause
  const FlagState &FA = A.flags(), &FB = B.flags();
  if (FB.K != FlagState::Kind::Unknown &&
      !(FA.K == FB.K && FA.Width == FB.Width && M.match(FB.L, FA.L) &&
        (!FB.R || (FA.R && M.match(FB.R, FA.R)))))
    return LeqMiss{Id};
  ++Id;

  for (const MemCell &CB : B.cells()) {
    bool Found = false;
    for (const MemCell &CA : A.cells())
      if (CA.Size == CB.Size && M.matchCell(CB, CA)) {
        Found = true;
        break;
      }
    if (!Found)
      return LeqMiss{Id};
    ++Id;
  }

  for (const RangeClause &C : B.ranges()) {
    Interval I = M.intervalInA(A, C.E);
    Interval Implied = clauseInterval(C.Op, C.Bound);
    // For unsigned clauses the interval argument needs non-negativity,
    // which clauseInterval's [0, B] form already enforces. A top Implied
    // means the clause has no signed-interval rendering (UGe/UGt, large
    // ULt bounds): containment is then vacuous, not an entailment — the
    // clause must instead match identically below. (Found by the fuzzing
    // campaign: a jb fall-through clause survived a covering check
    // against a state from the taken path.)
    bool OK = !I.isEmpty() && !I.isTop() && !Implied.isTop() &&
              Implied.contains(I);
    if (!OK && C.Op == RelOp::Ne && !I.isEmpty() &&
        !I.contains(static_cast<int64_t>(C.Bound)))
      OK = true;
    // Identical clause present in A: sound only when C.E is shared
    // verbatim between both states. If the Matcher bound a leaf of C.E
    // to a different A expression, the pointer-equal clause in A talks
    // about the *old* value, not the one B's clause constrains — e.g. a
    // loop back-edge where rcx maps to j_rcx − 8 but A still carries
    // j_rcx-range clauses from the previous iteration. (Found by the
    // fuzzing campaign: a decrementing loop kept a stale [0, 2^32−1]
    // bound on its join variable and dropped the taken jl successor.)
    if (!OK && !M.containsBoundVar(C.E))
      OK = std::find(A.ranges().begin(), A.ranges().end(), C) !=
           A.ranges().end();
    if (!OK)
      return LeqMiss{Id, I};
    ++Id;
  }
  return std::nullopt;
}

} // namespace

bool Pred::leq(const Pred &A, const Pred &B) { return !firstMiss(A, B); }

std::optional<Pred::LeqFailure> Pred::leqExplain(const ExprContext &Ctx,
                                                 const Pred &A,
                                                 const Pred &B) {
  std::optional<LeqMiss> Miss = firstMiss(A, B);
  if (!Miss)
    return std::nullopt;
  const int Id = Miss->ClauseId;
  if (Id < 0)
    return LeqFailure{-1, "⊥", "target invariant is unreachable (bottom)"};

  if (Id < static_cast<int>(x86::NumGPRs)) {
    Reg R = x86::regFromNum(static_cast<unsigned>(Id));
    return LeqFailure{Id, x86::regName(R) + " == " + B.reg64(R)->str(Ctx),
                      "state has " + x86::regName(R) + " == " +
                          A.reg64(R)->str(Ctx)};
  }

  if (Id == static_cast<int>(x86::NumGPRs)) {
    auto FlagsStr = [&](const FlagState &F) {
      std::string S = "flags(" + std::string(F.K == FlagState::Kind::Cmp ? "cmp"
                                             : F.K == FlagState::Kind::Test
                                                 ? "test"
                                             : F.K == FlagState::Kind::Res
                                                 ? "res"
                                                 : "zero-of");
      S += F.L ? " " + F.L->str(Ctx) : std::string();
      if (F.R)
        S += ", " + F.R->str(Ctx);
      return S + ")/" + std::to_string(F.Width);
    };
    return LeqFailure{Id, FlagsStr(B.Flags),
                      A.Flags.K == FlagState::Kind::Unknown
                          ? "state has no flag knowledge"
                          : "state has " + FlagsStr(A.Flags)};
  }

  size_t Cell = static_cast<size_t>(Id) - x86::NumGPRs - 1;
  if (Cell < B.Cells.size()) {
    const MemCell &CB = B.Cells[Cell];
    return LeqFailure{Id,
                      "*[" + CB.Addr->str(Ctx) + "," +
                          std::to_string(CB.Size) +
                          "] == " + CB.Val->str(Ctx),
                      "no matching memory clause in the state"};
  }

  const RangeClause &C = B.Ranges[Cell - B.Cells.size()];
  const Interval &I = Miss->InA;
  std::string Have = I.isTop() ? std::string("no interval for it")
                               : "its interval in the state is [" +
                                     std::to_string(I.lo()) + ", " +
                                     std::to_string(I.hi()) + "]";
  return LeqFailure{Id,
                    C.E->str(Ctx) + " " + relOpName(C.Op) + " " +
                        std::to_string(C.Bound),
                    Have};
}

// --- semantic satisfaction -------------------------------------------------------

bool Pred::holds(const expr::VarValuation &Vars,
                 const expr::MemOracle &InitMem,
                 const std::array<uint64_t, x86::NumGPRs> &RegVals,
                 const expr::MemOracle &CurMem) const {
  if (Bottom)
    return false;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    auto V = expr::evalExpr(Regs[I], Vars, InitMem);
    if (!V || *V != RegVals[I])
      return false;
  }
  for (const MemCell &C : Cells) {
    auto A = expr::evalExpr(C.Addr, Vars, InitMem);
    auto V = expr::evalExpr(C.Val, Vars, InitMem);
    if (!A || !V)
      return false;
    if (CurMem(*A, C.Size) != expr::maskToWidth(*V, C.Size * 8))
      return false;
  }
  for (const RangeClause &C : Ranges) {
    auto V = expr::evalExpr(C.E, Vars, InitMem);
    if (!V || !relHolds(C.Op, *V, C.Bound))
      return false;
  }
  return true;
}

std::string Pred::str(const ExprContext &Ctx) const {
  if (Bottom)
    return "⊥";
  std::string S;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    const Expr *V = Regs[I];
    if (!V)
      continue;
    // Skip the trivial "reg == reg0" clauses for readability.
    if (V->isVar() &&
        Ctx.varInfo(V->varId()).Name ==
            x86::regName(x86::regFromNum(I)) + "0")
      continue;
    S += x86::regName(x86::regFromNum(I)) + " == " + V->str(Ctx) + "; ";
  }
  for (const MemCell &C : Cells)
    S += "*[" + C.Addr->str(Ctx) + "," + std::to_string(C.Size) +
         "] == " + C.Val->str(Ctx) + "; ";
  for (const RangeClause &C : Ranges)
    S += C.E->str(Ctx) + " " + relOpName(C.Op) + " " +
         std::to_string(C.Bound) + "; ";
  return S;
}

} // namespace hglift::pred
