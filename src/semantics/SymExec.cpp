#include "semantics/SymExec.h"

#include "support/Format.h"
#include "vsa/ValueSet.h"

#include <algorithm>
#include <atomic>

namespace hglift::sem {

using expr::LinearForm;
using expr::Opcode;
using expr::VarClass;
using mem::InsertResult;
using mem::MemModel;
using pred::MemCell;
using pred::Pred;
using pred::RelOp;
using smt::AllocClass;
using smt::Region;
using x86::Cond;
using x86::Instr;
using x86::MemOperand;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

bool SymExec::isTerminatingExternal(const std::string &Name) {
  return Name == "exit" || Name == "_exit" || Name == "_Exit" ||
         Name == "abort" || Name == "exit_group" ||
         Name == "__stack_chk_fail" || Name == "__assert_fail" ||
         Name == "err" || Name == "errx";
}

bool SymExec::isConcurrencyExternal(const std::string &Name) {
  return Name.rfind("pthread_", 0) == 0 || Name == "thrd_create" ||
         Name == "clone";
}

const Expr *SymExec::memAddrExpr(const SymState &S, const Instr &I,
                                 const MemOperand &M) {
  int64_t Disp = static_cast<int64_t>(M.Disp);
  if (M.RipRel)
    return Ctx.mkConst(I.nextAddr() + static_cast<uint64_t>(Disp), 64);
  const Expr *A = nullptr;
  if (M.Base != Reg::None)
    A = S.P.reg64(M.Base);
  if (M.Index != Reg::None) {
    const Expr *Idx = S.P.reg64(M.Index);
    if (M.Scale != 1)
      Idx = Ctx.mkBin(Opcode::Mul, Idx, Ctx.mkConst(M.Scale, 64));
    A = A ? Ctx.mkAdd(A, Idx) : Idx;
  }
  if (!A)
    return Ctx.mkConst(static_cast<uint64_t>(Disp), 64);
  return Disp ? Ctx.mkAddK(A, Disp) : A;
}

std::vector<SymExec::ReadRes> SymExec::readMem(const SymState &S,
                                               const Expr *Addr,
                                               unsigned Size, StepOut &Out) {
  Region R{Addr, Size};
  std::vector<ReadRes> Results;
  for (InsertResult &IR :
       S.M.insert(R, S.P, Solver, Cfg.Policy, Ctx)) {
    SymState NS{S.P, std::move(IR.Model)};
    for (const Region &D : IR.Destroyed)
      NS.P.removeCell(D.Addr, D.Size);
    for (std::string &A : IR.Assumptions)
      Out.Obligations.push_back(std::move(A));

    // Value resolution, in decreasing precision. Read-only memory is
    // immutable for the binary's whole execution (writes to it fault), so
    // its content stands even after external calls havoc the mutable
    // globals — and such values are recomputable, so no memory clause is
    // registered for them (keeping the §4 control-hash stable across
    // paths that skip the read).
    const Expr *Val = nullptr;
    bool Recomputable = false;
    std::vector<Region> Aliases, Ancestors, Descendants;
    NS.M.locate(R, Aliases, Ancestors, Descendants);

    if (Addr->isConst() && Img.isReadOnly(Addr->constVal(), Size)) {
      if (auto V = Img.read(Addr->constVal(), Size)) {
        Val = Ctx.mkConst(*V, Size >= 8 ? 64 : Size * 8);
        Recomputable = true;
      }
    }
    if (!Val)
      if (const MemCell *C = NS.P.findCell(Addr, Size))
        Val = C->Val;
    if (!Val)
      for (const Region &A : Aliases)
        if (const MemCell *C = NS.P.findCell(A.Addr, A.Size)) {
          Val = C->Val;
          break;
        }
    if (!Val) {
      // A symbolic address whose whole range provably lies in a read-only
      // segment (a bounded jump-table access): initial content, stable.
      Interval IA = NS.P.intervalOf(Addr);
      if (!IA.isTop() && !IA.isEmpty() && IA.lo() >= 0 &&
          Img.isReadOnly(static_cast<uint64_t>(IA.lo()),
                         static_cast<uint64_t>(IA.hi() - IA.lo()) + Size)) {
        Val = Ctx.mkDeref(Addr, Size);
        Recomputable = true;
      }
    }
    if (!Val && NS.M.provablyUntouched(R, NS.P, Solver, Ctx))
      Val = Ctx.mkDeref(Addr, Size);
    if (!Val)
      Val = Ctx.mkFresh("mem", Size >= 8 ? 64 : Size * 8);
    if (!Recomputable)
      NS.P.setCell(Addr, Size, Val);
    Results.push_back(ReadRes{std::move(NS), Val});
  }
  return Results;
}

std::vector<SymState> SymExec::writeMem(const SymState &S, const Expr *Addr,
                                        unsigned Size, const Expr *Val,
                                        StepOut &Out) {
  Region R{Addr, Size};
  std::vector<SymState> Results;
  for (InsertResult &IR :
       S.M.insert(R, S.P, Solver, Cfg.Policy, Ctx)) {
    SymState NS{S.P, std::move(IR.Model)};
    for (const Region &D : IR.Destroyed)
      NS.P.removeCell(D.Addr, D.Size);
    for (std::string &A : IR.Assumptions)
      Out.Obligations.push_back(std::move(A));

    // Invalidate every clause the write may touch: aliases get the new
    // value implicitly through R's clause; enclosing and enclosed regions
    // become partially stale.
    std::vector<Region> Aliases, Ancestors, Descendants;
    NS.M.locate(R, Aliases, Ancestors, Descendants);
    for (const Region &A : Aliases)
      NS.P.removeCell(A.Addr, A.Size);
    for (const Region &A : Ancestors)
      NS.P.removeCell(A.Addr, A.Size);
    for (const Region &A : Descendants)
      NS.P.removeCell(A.Addr, A.Size);

    NS.P.setCell(Addr, Size, Val);
    NS.M.noteWrite(R);
    Results.push_back(std::move(NS));
  }
  return Results;
}

// --- branch clause derivation -------------------------------------------------

namespace {

/// Map a condition code to (RelOp over L, bound) when R is the constant
/// side. Mirrored = the constant was on the left of the cmp.
bool ccToRel(Cond CC, bool Mirrored, RelOp &Op) {
  switch (CC) {
  case Cond::E:
    Op = RelOp::Eq;
    return true;
  case Cond::NE:
    Op = RelOp::Ne;
    return true;
  case Cond::B:
    Op = Mirrored ? RelOp::UGt : RelOp::ULt;
    return true;
  case Cond::AE:
    Op = Mirrored ? RelOp::ULe : RelOp::UGe;
    return true;
  case Cond::BE:
    Op = Mirrored ? RelOp::UGe : RelOp::ULe;
    return true;
  case Cond::A:
    Op = Mirrored ? RelOp::ULt : RelOp::UGt;
    return true;
  case Cond::L:
    Op = Mirrored ? RelOp::SGt : RelOp::SLt;
    return true;
  case Cond::GE:
    Op = Mirrored ? RelOp::SLe : RelOp::SGe;
    return true;
  case Cond::LE:
    Op = Mirrored ? RelOp::SGe : RelOp::SLe;
    return true;
  case Cond::G:
    Op = Mirrored ? RelOp::SLt : RelOp::SGt;
    return true;
  default:
    return false;
  }
}

} // namespace

bool SymExec::addBranchClause(Pred &P, Cond CC, bool Taken) {
  const pred::FlagState &F = P.flags();
  if (!Taken)
    CC = x86::negateCond(CC);

  const Expr *E = nullptr;
  uint64_t Bound = 0;
  RelOp Op;

  if (F.K == pred::FlagState::Kind::Cmp) {
    bool Mirrored;
    if (F.R && F.R->isConst()) {
      E = F.L;
      Bound = F.R->constVal();
      Mirrored = false;
    } else if (F.L && F.L->isConst()) {
      E = F.R;
      Bound = F.L->constVal();
      Mirrored = true;
    } else {
      return true; // no refinement possible
    }
    if (!ccToRel(CC, Mirrored, Op))
      return true;
  } else if (F.K == pred::FlagState::Kind::Test && F.L == F.R && F.L) {
    // test x, x: flags of x vs 0.
    E = F.L;
    Bound = 0;
    switch (CC) {
    case Cond::E:
    case Cond::BE:
      Op = RelOp::Eq;
      break;
    case Cond::NE:
    case Cond::A:
      Op = RelOp::Ne;
      break;
    case Cond::S:
    case Cond::L:
      Op = RelOp::SLt;
      break;
    case Cond::NS:
    case Cond::GE:
      Op = RelOp::SGe;
      break;
    case Cond::LE:
      Op = RelOp::SLe;
      break;
    case Cond::G:
      Op = RelOp::SGt;
      break;
    case Cond::B:
      return false; // CF = 0 after test: branch unreachable
    case Cond::AE:
      return true; // always true: no clause
    default:
      return true;
    }
  } else if (F.K == pred::FlagState::Kind::ZeroOf && F.L) {
    E = F.L;
    Bound = 0;
    switch (CC) {
    case Cond::E:
      Op = RelOp::Eq;
      break;
    case Cond::NE:
      Op = RelOp::Ne;
      break;
    default:
      return true;
    }
  } else if (F.K == pred::FlagState::Kind::Res && F.L) {
    E = F.L;
    Bound = 0;
    switch (CC) {
    case Cond::E:
      Op = RelOp::Eq;
      break;
    case Cond::NE:
      Op = RelOp::Ne;
      break;
    case Cond::S:
      Op = RelOp::SLt;
      break;
    case Cond::NS:
      Op = RelOp::SGe;
      break;
    default:
      return true;
    }
  } else {
    return true;
  }

  // A signed condition compares both sides sign-extended from the
  // operation's width, but a range clause's signed relations read their
  // operands as 64-bit values: lift a narrow signed clause to sext(E, 64)
  // with the bound sign-extended to match.
  bool Signed = Op == RelOp::SLt || Op == RelOp::SLe || Op == RelOp::SGe ||
                Op == RelOp::SGt;
  if (Signed && E->width() < 64) {
    Bound = static_cast<uint64_t>(expr::signExtend(Bound, E->width()));
    E = Ctx.mkSExt(E, 64);
  }

  if (E->isConst())
    return pred::relHolds(Op, E->constVal(), Bound); // decidable immediately

  P.addRange(E, Op, Bound);
  // Contradiction check: an empty interval means this branch direction is
  // unreachable from the current state.
  Interval IV = P.intervalOf(E);
  if (IV.isEmpty())
    return false;
  if (Op == RelOp::Eq && !IV.contains(static_cast<int64_t>(Bound)) &&
      !IV.isTop())
    return false;
  return true;
}

// --- rip resolution -------------------------------------------------------------

SymExec::RipRes SymExec::resolveRip(const Expr *Val, const Pred &P) {
  RipRes R;
  if (Val->isConst()) {
    R.K = RipRes::Kind::Imm;
    R.Addr = Val->constVal();
    return R;
  }
  if (Val->isVar()) {
    VarClass C = Ctx.varInfo(Val->varId()).Cls;
    if (C == VarClass::RetSym || C == VarClass::RetAddr) {
      R.K = RipRes::Kind::RetSym;
      return R;
    }
  }

  // Jump-table patterns (absolute and, with Cfg.Vsa, offset tables and
  // interval-derived bounds): delegated to the value-set analysis, which
  // is a pure function of (invariant, image) so Step-1 and Step-2 agree.
  vsa::VsaConfig VC;
  VC.Extended = Cfg.Vsa;
  VC.MaxTargets = Cfg.VsaMaxTargets;
  VC.MaxJumpTableEntries = Cfg.MaxJumpTableEntries;
  // The vsa_* counters attribute the analysis, not the legacy resolver it
  // subsumes: under --no-vsa they must read zero (docs/CLI.md).
  if (Stats && Cfg.Vsa)
    ++Stats->VsaQueries;
  vsa::Resolution VR = vsa::resolveValueSet(Img, P, Val, VC);
  if (VR.resolved()) {
    R.K = RipRes::Kind::Table;
    R.Targets = std::move(VR.Targets);
    R.TableAddr = VR.TableAddr;
    R.UsedExtended = VR.UsedExtended;
    if (Stats && Cfg.Vsa) {
      ++Stats->VsaResolved;
      Stats->VsaTargets += R.Targets.size();
    }
    return R;
  }

  R.K = RipRes::Kind::Unresolved;
  R.UnboundedIndex = VR.Index;
  return R;
}

// --- call-state cleaning ----------------------------------------------------------

void SymExec::cleanForCall(SymState &S, const std::string &CalleeName,
                           uint64_t CallAddr, StepOut &Out) {
  // MUST-PRESERVE obligations for stack-frame pointers escaping into the
  // callee (the §5.3 ret2win shape).
  for (unsigned AI = 0; AI < 6; ++AI) {
    Reg AR = x86::argReg(AI);
    const Expr *V = S.P.reg64(AR);
    if (smt::classifyAddr(V, Ctx) == AllocClass::StackFrame) {
      Out.Obligations.push_back(
          "@" + hexStr(CallAddr) + " : " + CalleeName + "(" +
          x86::regName(AR) + " := " + V->str(Ctx) +
          ") MUST PRESERVE [rsp0, 8]");
    }
  }

  // Havoc the System V volatile registers; rax becomes the callee's result
  // (an External variable, so malloc-style results classify as heap).
  S.P.writeReg(Ctx, Reg::RAX, 8, false,
               Ctx.mkFresh("ret_" + CalleeName));
  const Expr *RaxVal = S.P.reg64(Reg::RAX);
  // Reclassify as External: mkFresh produces VarClass::Fresh; build a
  // dedicated External variable instead.
  {
    static_cast<void>(RaxVal);
    const Expr *Ext = Ctx.mkVar(VarClass::External,
                                "ret_" + CalleeName + "@" + hexStr(CallAddr),
                                64);
    S.P.setReg64(Reg::RAX, Ext);
  }
  for (Reg R : {Reg::RCX, Reg::RDX, Reg::RSI, Reg::RDI, Reg::R8, Reg::R9,
                Reg::R10, Reg::R11})
    S.P.setReg64(R, Ctx.mkFresh("clob_" + x86::regName(R)));
  S.P.clearFlags();

  // Keep only local-stack-frame memory clauses (§1: "the local stack frame
  // is kept intact ... the heap and the global space are destroyed").
  S.P.filterCells([&](const MemCell &C) {
    return smt::classifyAddr(C.Addr, Ctx) == AllocClass::StackFrame;
  });
  S.M.HavocGlobals = true;
}

// --- the step function ---------------------------------------------------------------

namespace {
std::atomic<StepMutator *> GStepMutator{nullptr};
} // namespace

StepMutator::~StepMutator() = default;

StepMutator *installStepMutator(StepMutator *M) {
  return GStepMutator.exchange(M, std::memory_order_relaxed);
}

StepMutator *installedStepMutator() {
  return GStepMutator.load(std::memory_order_relaxed);
}

StepOut SymExec::step(const SymState &S0, const Instr &I,
                      const Expr *EntryRetSym) {
  StepOut Out = stepImpl(S0, I, EntryRetSym);
  if (StepMutator *Mut = installedStepMutator())
    Mut->mutate(Out, S0, I, Ctx);
  if (Stats) {
    ++Stats->Steps;
    if (Out.Succs.size() > 1)
      Stats->Forks += Out.Succs.size() - 1;
  }

  // Structure the step's findings (cold: most steps produce neither). The
  // provenance snapshot — decoded mnemonic plus the solver's recent
  // relation-query chain — is taken here, while the queries that led to
  // the obligation/rejection are still the newest in the ring.
  if (!Out.Obligations.empty() || Out.VerifError) {
    diag::Provenance Prov;
    Prov.Origin = diag::Component::SymExec;
    Prov.Addr = I.Addr;
    Prov.Mnemonic = I.str();
    Prov.QueryChain = Solver.recentQueries();
    Prov.Worker = diag::workerOrdinal();
    for (const std::string &O : Out.Obligations)
      Out.Diags.push_back(
          diag::Diagnostic{diag::DiagKind::ProofObligation, O, Prov});
    if (Out.VerifError)
      Out.Diags.push_back(diag::Diagnostic{diag::DiagKind::VerificationError,
                                           Out.VerifReason, Prov});
  }
  return Out;
}

StepOut SymExec::stepImpl(const SymState &S0, const Instr &I,
                          const Expr *EntryRetSym) {
  StepOut Out;
  uint64_t Next = I.nextAddr();

  auto fail = [&](const std::string &Why) {
    Out.VerifError = true;
    Out.VerifReason = Why + " at " + hexStr(I.Addr) + " (" + I.str() + ")";
    return Out;
  };

  // Generic operand plumbing. States fork on memory-model nondeterminism.
  auto pure = [&](const SymState &S, const Operand &O) -> const Expr * {
    if (O.isImm())
      return Ctx.mkConst(static_cast<uint64_t>(O.Imm), O.Size * 8);
    return S.P.readReg(Ctx, O.R, O.Size, O.HighByte);
  };
  auto readOp = [&](const SymState &S,
                    const Operand &O) -> std::vector<ReadRes> {
    if (!O.isMem())
      return {ReadRes{S, pure(S, O)}};
    return readMem(S, memAddrExpr(S, I, O.M), O.Size, Out);
  };
  auto writeOp = [&](const SymState &S, const Operand &O,
                     const Expr *VIn) -> std::vector<SymState> {
    // Bound expression growth: beyond the cap, substitute an unconstrained
    // value (sound weakening; mirrors the paper's implementation).
    const Expr *V = VIn->treeSize() > ExprContext::MaxTreeSize
                        ? Ctx.mkFresh("big", VIn->width())
                        : VIn;
    if (O.isReg()) {
      SymState NS = S;
      NS.P.writeReg(Ctx, O.R, O.Size, O.HighByte, V);
      return {NS};
    }
    return writeMem(S, memAddrExpr(S, I, O.M), O.Size, V, Out);
  };
  auto emitFall = [&](SymState S) {
    Out.Succs.push_back(Succ{std::move(S), CtrlKind::Fall, Next, nullptr});
  };

  unsigned W = I.Ops[0].isNone() ? I.OpSize * 8u : I.Ops[0].Size * 8u;

  switch (I.Mn) {
  case Mnemonic::Mov:
    for (ReadRes &R : readOp(S0, I.Ops[1]))
      for (SymState &NS : writeOp(R.S, I.Ops[0], R.Val))
        emitFall(std::move(NS));
    return Out;

  case Mnemonic::Movzx:
    for (ReadRes &R : readOp(S0, I.Ops[1]))
      for (SymState &NS : writeOp(
               R.S, I.Ops[0], Ctx.mkZExt(R.Val, I.Ops[0].Size * 8)))
        emitFall(std::move(NS));
    return Out;

  case Mnemonic::Movsx:
  case Mnemonic::Movsxd:
    for (ReadRes &R : readOp(S0, I.Ops[1]))
      for (SymState &NS : writeOp(
               R.S, I.Ops[0], Ctx.mkSExt(R.Val, I.Ops[0].Size * 8)))
        emitFall(std::move(NS));
    return Out;

  case Mnemonic::Lea: {
    const Expr *A = memAddrExpr(S0, I, I.Ops[1].M);
    if (I.Ops[0].Size != 8)
      A = Ctx.mkTrunc(A, I.Ops[0].Size * 8);
    for (SymState &NS : writeOp(S0, I.Ops[0], A))
      emitFall(std::move(NS));
    return Out;
  }

  case Mnemonic::Add:
  case Mnemonic::Sub:
  case Mnemonic::And:
  case Mnemonic::Or:
  case Mnemonic::Xor: {
    Opcode Op = I.Mn == Mnemonic::Add   ? Opcode::Add
                : I.Mn == Mnemonic::Sub ? Opcode::Sub
                : I.Mn == Mnemonic::And ? Opcode::And
                : I.Mn == Mnemonic::Or  ? Opcode::Or
                                        : Opcode::Xor;
    for (ReadRes &RD : readOp(S0, I.Ops[0]))
      for (ReadRes &RS : readOp(RD.S, I.Ops[1])) {
        const Expr *L = RD.Val, *R = RS.Val;
        const Expr *Res = Ctx.mkOp(Op, {L, R}, W);
        if (Res->treeSize() > ExprContext::MaxTreeSize)
          Res = Ctx.mkFresh("alu", W);
        for (SymState &NS : writeOp(RS.S, I.Ops[0], Res)) {
          if (I.Mn == Mnemonic::Sub)
            NS.P.setFlagsCmp(L, R, W);
          else if (I.Mn == Mnemonic::And)
            NS.P.setFlagsTest(L, R, W);
          else
            NS.P.setFlagsRes(Res, W);
          emitFall(std::move(NS));
        }
      }
    return Out;
  }

  case Mnemonic::Adc:
  case Mnemonic::Sbb:
    // Carry-dependent arithmetic: havoc the destination (sound).
    for (SymState &NS : writeOp(S0, I.Ops[0], Ctx.mkFresh("carry", W))) {
      NS.P.clearFlags();
      emitFall(std::move(NS));
    }
    return Out;

  case Mnemonic::Cmp:
    for (ReadRes &RD : readOp(S0, I.Ops[0]))
      for (ReadRes &RS : readOp(RD.S, I.Ops[1])) {
        SymState NS = RS.S;
        NS.P.setFlagsCmp(RD.Val, RS.Val, W);
        emitFall(std::move(NS));
      }
    return Out;

  case Mnemonic::Test:
    for (ReadRes &RD : readOp(S0, I.Ops[0]))
      for (ReadRes &RS : readOp(RD.S, I.Ops[1])) {
        SymState NS = RS.S;
        NS.P.setFlagsTest(RD.Val, RS.Val, W);
        emitFall(std::move(NS));
      }
    return Out;

  case Mnemonic::Shl:
  case Mnemonic::Shr:
  case Mnemonic::Sar: {
    Opcode Op = I.Mn == Mnemonic::Shl   ? Opcode::Shl
                : I.Mn == Mnemonic::Shr ? Opcode::LShr
                                        : Opcode::AShr;
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      const Expr *Count = pure(RD.S, I.Ops[1]); // imm8 or cl
      if (Count->isConst() && (Count->constVal() & (W == 64 ? 63 : 31)) == 0) {
        emitFall(RD.S); // shift by zero: no state change, flags kept
        continue;
      }
      const Expr *CountW = Ctx.mkZExt(Count, W);
      const Expr *Res = Ctx.mkOp(Op, {RD.Val, CountW}, W);
      for (SymState &NS : writeOp(RD.S, I.Ops[0], Res)) {
        if (Count->isConst())
          NS.P.setFlagsRes(Res, W);
        else
          NS.P.clearFlags();
        emitFall(std::move(NS));
      }
    }
    return Out;
  }

  case Mnemonic::Rol:
  case Mnemonic::Ror:
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      const Expr *Count = pure(RD.S, I.Ops[1]);
      const Expr *Res;
      if (Count->isConst()) {
        unsigned C = Count->constVal() & (W == 64 ? 63 : 31);
        if (C % W == 0) {
          emitFall(RD.S); // rotation by a multiple of the width: no-op
          continue;
        }
        unsigned L = I.Mn == Mnemonic::Rol ? C % W : W - (C % W);
        Res = Ctx.mkBin(
            Opcode::Or,
            Ctx.mkOp(Opcode::Shl, {RD.Val, Ctx.mkConst(L, W)}, W),
            Ctx.mkOp(Opcode::LShr, {RD.Val, Ctx.mkConst(W - L, W)}, W));
      } else {
        Res = Ctx.mkFresh("rot", W);
      }
      for (SymState &NS : writeOp(RD.S, I.Ops[0], Res)) {
        // Rotates modify only CF/OF, which the flag abstraction does not
        // track; drop what is tracked (sound weakening).
        NS.P.clearFlags();
        emitFall(std::move(NS));
      }
    }
    return Out;

  case Mnemonic::Bswap: {
    SymState Base = S0;
    const Expr *Old = Base.P.readReg(Ctx, I.Ops[0].R, I.Ops[0].Size);
    static_cast<void>(Old);
    // Byte-reversal as an expression would be eight extract/shift terms;
    // havoc is the paper-style sound treatment. bswap leaves flags alone.
    Base.P.writeReg(Ctx, I.Ops[0].R, I.Ops[0].Size, false,
                    Ctx.mkFresh("bswap", W));
    emitFall(std::move(Base));
    return Out;
  }

  case Mnemonic::Bsf:
  case Mnemonic::Bsr:
    for (ReadRes &RS : readOp(S0, I.Ops[1])) {
      SymState NS = RS.S;
      // Result: some bit index in [0, W); ZF = (src == 0). When the source
      // is zero the destination is left unchanged (architecturally
      // undefined), so the fresh value must stay unbounded: the [0, 63]
      // range is only sound when the source is provably nonzero. (Found
      // by the fuzzing campaign: a possibly-zero bsf source let a stale
      // bounded bit index suppress a signed branch's taken successor.)
      const Expr *Idx = Ctx.mkFresh("bitidx", W);
      NS.P.writeReg(Ctx, I.Ops[0].R, I.Ops[0].Size, false, Idx);
      Interval SrcI = NS.P.intervalOf(RS.Val);
      bool NonZero = (RS.Val->isConst() &&
                      expr::maskToWidth(RS.Val->constVal(), W) != 0) ||
                     (!SrcI.isTop() && !SrcI.isEmpty() &&
                      !SrcI.contains(0));
      if (NonZero)
        NS.P.addRange(NS.P.reg64(I.Ops[0].R), pred::RelOp::ULe, 63);
      NS.P.setFlagsZeroOf(RS.Val, W);
      emitFall(std::move(NS));
    }
    return Out;

  case Mnemonic::Inc:
  case Mnemonic::Dec:
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      const Expr *One = Ctx.mkConst(1, W);
      const Expr *Res = Ctx.mkOp(
          I.Mn == Mnemonic::Inc ? Opcode::Add : Opcode::Sub, {RD.Val, One},
          W);
      for (SymState &NS : writeOp(RD.S, I.Ops[0], Res)) {
        NS.P.setFlagsRes(Res, W);
        emitFall(std::move(NS));
      }
    }
    return Out;

  case Mnemonic::Neg:
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      const Expr *Res = Ctx.mkOp(Opcode::Neg, {RD.Val}, W);
      for (SymState &NS : writeOp(RD.S, I.Ops[0], Res)) {
        NS.P.setFlagsCmp(Ctx.mkConst(0, W), RD.Val, W);
        emitFall(std::move(NS));
      }
    }
    return Out;

  case Mnemonic::Not:
    for (ReadRes &RD : readOp(S0, I.Ops[0]))
      for (SymState &NS :
           writeOp(RD.S, I.Ops[0], Ctx.mkOp(Opcode::Not, {RD.Val}, W)))
        emitFall(std::move(NS)); // not does not touch flags
    return Out;

  case Mnemonic::Imul: {
    if (I.numOperands() == 1) {
      // rdx:rax widening multiply: keep the low half, havoc the high half.
      for (ReadRes &RD : readOp(S0, I.Ops[0])) {
        SymState NS = RD.S;
        const Expr *Rax = NS.P.readReg(Ctx, Reg::RAX, I.Ops[0].Size);
        const Expr *Lo = Ctx.mkOp(Opcode::Mul, {Rax, RD.Val}, W);
        NS.P.writeReg(Ctx, Reg::RAX, I.Ops[0].Size, false, Lo);
        NS.P.writeReg(Ctx, Reg::RDX, I.Ops[0].Size, false,
                      Ctx.mkFresh("hi", W));
        NS.P.clearFlags();
        emitFall(std::move(NS));
      }
      return Out;
    }
    const Operand &SrcA = I.numOperands() == 3 ? I.Ops[1] : I.Ops[0];
    const Operand &SrcB = I.numOperands() == 3 ? I.Ops[2] : I.Ops[1];
    for (ReadRes &RA : readOp(S0, SrcA))
      for (ReadRes &RB : readOp(RA.S, SrcB)) {
        const Expr *Res = Ctx.mkOp(Opcode::Mul, {RA.Val, RB.Val}, W);
        for (SymState &NS : writeOp(RB.S, I.Ops[0], Res)) {
          NS.P.clearFlags();
          emitFall(std::move(NS));
        }
      }
    return Out;
  }

  case Mnemonic::Mul:
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      SymState NS = RD.S;
      const Expr *Rax = NS.P.readReg(Ctx, Reg::RAX, I.Ops[0].Size);
      NS.P.writeReg(Ctx, Reg::RAX, I.Ops[0].Size, false,
                    Ctx.mkOp(Opcode::Mul, {Rax, RD.Val}, W));
      NS.P.writeReg(Ctx, Reg::RDX, I.Ops[0].Size, false,
                    Ctx.mkFresh("hi", W));
      NS.P.clearFlags();
      emitFall(std::move(NS));
    }
    return Out;

  case Mnemonic::Div:
  case Mnemonic::Idiv:
    for (ReadRes &RD : readOp(S0, I.Ops[0])) {
      SymState NS = RD.S;
      const Expr *Rdx = NS.P.readReg(Ctx, Reg::RDX, I.Ops[0].Size);
      const Expr *Rax = NS.P.readReg(Ctx, Reg::RAX, I.Ops[0].Size);
      if (I.Mn == Mnemonic::Div && Rdx->isConst() && Rdx->constVal() == 0) {
        // Common zero-extended division: rax = rax / src, rdx = rax % src.
        NS.P.writeReg(Ctx, Reg::RAX, I.Ops[0].Size, false,
                      Ctx.mkOp(Opcode::UDiv, {Rax, RD.Val}, W));
        NS.P.writeReg(Ctx, Reg::RDX, I.Ops[0].Size, false,
                      Ctx.mkOp(Opcode::URem, {Rax, RD.Val}, W));
      } else {
        NS.P.writeReg(Ctx, Reg::RAX, I.Ops[0].Size, false,
                      Ctx.mkFresh("quot", W));
        NS.P.writeReg(Ctx, Reg::RDX, I.Ops[0].Size, false,
                      Ctx.mkFresh("rem", W));
      }
      NS.P.clearFlags();
      emitFall(std::move(NS));
    }
    return Out;

  case Mnemonic::Push: {
    for (ReadRes &R : readOp(S0, I.Ops[0])) {
      SymState Mid = R.S;
      const Expr *NewRsp = Ctx.mkAddK(Mid.P.reg64(Reg::RSP), -8);
      Mid.P.setReg64(Reg::RSP, NewRsp);
      const Expr *V =
          I.Ops[0].Size == 8 ? R.Val : Ctx.mkSExt(R.Val, 64);
      for (SymState &NS : writeMem(Mid, NewRsp, 8, V, Out))
        emitFall(std::move(NS));
    }
    return Out;
  }

  case Mnemonic::Pop: {
    const Expr *Rsp = S0.P.reg64(Reg::RSP);
    for (ReadRes &R : readMem(S0, Rsp, 8, Out)) {
      SymState Mid = R.S;
      Mid.P.setReg64(Reg::RSP, Ctx.mkAddK(Rsp, 8));
      for (SymState &NS : writeOp(Mid, I.Ops[0], R.Val))
        emitFall(std::move(NS));
    }
    return Out;
  }

  case Mnemonic::Leave: {
    SymState Mid = S0;
    const Expr *Rbp = Mid.P.reg64(Reg::RBP);
    Mid.P.setReg64(Reg::RSP, Rbp);
    for (ReadRes &R : readMem(Mid, Rbp, 8, Out)) {
      SymState NS = R.S;
      NS.P.setReg64(Reg::RBP, R.Val);
      NS.P.setReg64(Reg::RSP, Ctx.mkAddK(Rbp, 8));
      emitFall(std::move(NS));
    }
    return Out;
  }

  case Mnemonic::Call: {
    // Resolve the callee.
    std::vector<std::pair<SymState, const Expr *>> TargetStates;
    if (I.Ops[0].isImm()) {
      TargetStates.push_back(
          {S0, Ctx.mkConst(static_cast<uint64_t>(I.Ops[0].Imm), 64)});
    } else if (I.Ops[0].isReg()) {
      TargetStates.push_back({S0, S0.P.reg64(I.Ops[0].R)});
    } else {
      for (ReadRes &R : readMem(S0, memAddrExpr(S0, I, I.Ops[0].M), 8, Out))
        TargetStates.push_back({R.S, R.Val});
    }

    for (auto &[TS, Target] : TargetStates) {
      if (Target->isConst()) {
        uint64_t T = Target->constVal();
        if (auto Ext = Img.externalName(T)) {
          if (isConcurrencyExternal(*Ext)) {
            Out.SawConcurrency = true;
            Out.ExtName = *Ext;
            return Out; // binary out of scope; no successors
          }
          if (isTerminatingExternal(*Ext))
            continue; // terminating: no successor from this state
          SymState NS = TS;
          cleanForCall(NS, *Ext, I.Addr, Out);
          Out.ExtName = *Ext;
          Out.Succs.push_back(
              Succ{std::move(NS), CtrlKind::CallExternal, Next, Target});
          continue;
        }
        if (Img.isExec(T)) {
          SymState NS = TS;
          cleanForCall(NS, "f_" + hexStr(T), I.Addr, Out);
          Out.CalleeAddr = T;
          Succ Sc{std::move(NS), CtrlKind::CallInternal, Next, Target};
          Sc.CalleeAddr = T;
          Out.Succs.push_back(std::move(Sc));
          continue;
        }
      }
      // VSA: an indirect call through a read-only function-pointer table
      // resolves to one CallInternal successor per callee. Each edge is
      // re-derived by the Step-2 checker from the same invariant, so a
      // wrong resolution fails checking instead of trusting the claim.
      if (Cfg.Vsa && !Target->isConst()) {
        RipRes RR = resolveRip(Target, TS.P);
        if (RR.K == RipRes::Kind::Table) {
          bool AllInternal = true;
          for (uint64_t T : RR.Targets)
            if (Img.externalName(T)) {
              AllInternal = false;
              break;
            }
          if (AllInternal && !RR.Targets.empty()) {
            Out.ResolvedTargets += RR.Targets.size();
            for (uint64_t T : RR.Targets) {
              SymState NS = TS;
              cleanForCall(NS, "f_" + hexStr(T), I.Addr, Out);
              Succ Sc{std::move(NS), CtrlKind::CallInternal, Next, Target};
              Sc.CalleeAddr = T;
              Sc.ViaTable = RR.TableAddr;
              Out.Succs.push_back(std::move(Sc));
            }
            // Call resolutions are new behavior (legacy never resolved
            // calls), so they always carry a provenance obligation.
            Out.Obligations.push_back(
                "@" + hexStr(I.Addr) + " : vsa resolved indirect call via "
                "jump-table@" + hexStr(RR.TableAddr) + " (" +
                std::to_string(RR.Targets.size()) + " targets)");
            continue;
          }
        } else if (RR.UnboundedIndex) {
          Out.UnboundedIndex = RR.UnboundedIndex;
        }
      }
      // Unresolved call: annotate, continue as unknown external (§5.1).
      SymState NS = TS;
      cleanForCall(NS, "unknown", I.Addr, Out);
      Out.Succs.push_back(
          Succ{std::move(NS), CtrlKind::UnresCall, Next, Target});
    }
    return Out;
  }

  case Mnemonic::Ret: {
    const Expr *Rsp = S0.P.reg64(Reg::RSP);
    for (ReadRes &R : readMem(S0, Rsp, 8, Out)) {
      SymState NS = R.S;
      int64_t Extra = I.Ops[0].isImm() ? I.Ops[0].Imm : 0;
      NS.P.setReg64(Reg::RSP, Ctx.mkAddK(Rsp, 8 + Extra));

      RipRes RR = resolveRip(R.Val, NS.P);
      if (RR.K == RipRes::Kind::RetSym && R.Val == EntryRetSym) {
        // Normal return: verify the three sanity properties.
        // 1. Return-address integrity is established by R.Val being the
        //    entry symbol (the clause survived every write).
        // 2. Stack-pointer restoration: rsp == rsp0 + 8.
        LinearForm LR = expr::linearize(NS.P.reg64(Reg::RSP));
        LinearForm L0 = expr::linearize(
            Ctx.mkAddK(Ctx.mkVar(VarClass::StackBase, "rsp0", 64), 8));
        if (!(LR.sameBase(L0) && LR.Constant == L0.Constant + Extra))
          return fail("non-standard stack pointer restoration: rsp == " +
                      NS.P.reg64(Reg::RSP)->str(Ctx));
        // 3. Calling-convention adherence: callee-saved registers restored.
        for (Reg CS : {Reg::RBX, Reg::RBP, Reg::R12, Reg::R13, Reg::R14,
                       Reg::R15}) {
          const Expr *V = NS.P.reg64(CS);
          const Expr *Init =
              Ctx.mkVar(VarClass::InitReg, x86::regName(CS) + "0", 64);
          if (V != Init)
            return fail("calling convention violation: " + x86::regName(CS) +
                        " == " + V->str(Ctx));
        }
        Out.Succs.push_back(Succ{std::move(NS), CtrlKind::Ret, 0, R.Val});
        continue;
      }
      if (RR.K == RipRes::Kind::Imm && Img.isExec(RR.Addr)) {
        // A "weird" return to a concrete planted address: still bounded,
        // so the edge is emitted (this is how §2's ROP gadget shows up).
        Out.Succs.push_back(
            Succ{std::move(NS), CtrlKind::Fall, RR.Addr, R.Val});
        continue;
      }
      return fail("unprovable return address: *[rsp] == " +
                  R.Val->str(Ctx));
    }
    return Out;
  }

  case Mnemonic::Jmp: {
    if (I.Ops[0].isImm()) {
      SymState NS = S0;
      Out.Succs.push_back(Succ{std::move(NS), CtrlKind::Fall,
                               static_cast<uint64_t>(I.Ops[0].Imm), nullptr});
      return Out;
    }
    std::vector<std::pair<SymState, const Expr *>> TargetStates;
    if (I.Ops[0].isReg()) {
      TargetStates.push_back({S0, S0.P.reg64(I.Ops[0].R)});
    } else {
      for (ReadRes &R : readMem(S0, memAddrExpr(S0, I, I.Ops[0].M), 8, Out))
        TargetStates.push_back({R.S, R.Val});
    }
    for (auto &[TS, Target] : TargetStates) {
      RipRes RR = resolveRip(Target, TS.P);
      switch (RR.K) {
      case RipRes::Kind::Imm:
        if (!Img.isExec(RR.Addr))
          return fail("jump to non-executable address " + hexStr(RR.Addr));
        Out.Succs.push_back(Succ{TS, CtrlKind::Fall, RR.Addr, Target});
        break;
      case RipRes::Kind::Table: {
        Out.ResolvedTargets += RR.Targets.size();
        for (uint64_t T : RR.Targets) {
          Succ Sc{TS, CtrlKind::Fall, T, Target};
          Sc.ViaTable = RR.TableAddr;
          Out.Succs.push_back(std::move(Sc));
        }
        // Provenance obligation only when the extended VSA machinery was
        // needed: legacy-resolvable tables keep byte-identical reports.
        if (RR.UsedExtended)
          Out.Obligations.push_back(
              "@" + hexStr(I.Addr) + " : vsa resolved indirect jump via "
              "jump-table@" + hexStr(RR.TableAddr) + " (" +
              std::to_string(RR.Targets.size()) + " targets)");
        break;
      }
      case RipRes::Kind::RetSym:
        // Tail-call style return through jmp.
        Out.Succs.push_back(Succ{TS, CtrlKind::Ret, 0, Target});
        break;
      case RipRes::Kind::Unresolved:
        if (Cfg.Vsa)
          Out.UnboundedIndex = RR.UnboundedIndex;
        Out.Succs.push_back(Succ{TS, CtrlKind::UnresJump, 0, Target});
        break;
      }
    }
    return Out;
  }

  case Mnemonic::Jcc: {
    const Expr *C = S0.P.condExpr(Ctx, I.CC);
    uint64_t Taken = static_cast<uint64_t>(I.Ops[0].Imm);
    if (C && C->isConst()) {
      SymState NS = S0;
      Out.Succs.push_back(Succ{std::move(NS), CtrlKind::Fall,
                               C->constVal() ? Taken : Next, nullptr});
      return Out;
    }
    {
      SymState NS = S0;
      if (addBranchClause(NS.P, I.CC, /*Taken=*/true))
        Out.Succs.push_back(Succ{std::move(NS), CtrlKind::Fall, Taken,
                                 nullptr});
    }
    {
      SymState NS = S0;
      if (addBranchClause(NS.P, I.CC, /*Taken=*/false))
        Out.Succs.push_back(
            Succ{std::move(NS), CtrlKind::Fall, Next, nullptr});
    }
    return Out;
  }

  case Mnemonic::Setcc: {
    const Expr *C = S0.P.condExpr(Ctx, I.CC);
    const Expr *V = C ? Ctx.mkZExt(C, 8) : Ctx.mkFresh("setcc", 8);
    for (SymState &NS : writeOp(S0, I.Ops[0], V))
      emitFall(std::move(NS));
    return Out;
  }

  case Mnemonic::Cmovcc: {
    const Expr *C = S0.P.condExpr(Ctx, I.CC);
    for (ReadRes &RS : readOp(S0, I.Ops[1])) {
      const Expr *Old = pure(RS.S, I.Ops[0]);
      const Expr *V = C ? Ctx.mkIte(C, RS.Val, Old)
                        : Ctx.mkFresh("cmov", I.Ops[0].Size * 8);
      for (SymState &NS : writeOp(RS.S, I.Ops[0], V))
        emitFall(std::move(NS));
    }
    return Out;
  }

  case Mnemonic::Xchg:
    for (ReadRes &RA : readOp(S0, I.Ops[0]))
      for (ReadRes &RB : readOp(RA.S, I.Ops[1]))
        for (SymState &M1 : writeOp(RB.S, I.Ops[0], RB.Val))
          for (SymState &M2 : writeOp(M1, I.Ops[1], RA.Val))
            emitFall(std::move(M2));
    return Out;

  case Mnemonic::Cdqe: {
    SymState NS = S0;
    if (I.OpSize == 8) {
      const Expr *Eax = NS.P.readReg(Ctx, Reg::RAX, 4);
      NS.P.setReg64(Reg::RAX, Ctx.mkSExt(Eax, 64));
    } else {
      const Expr *Ax = NS.P.readReg(Ctx, Reg::RAX, 2);
      NS.P.writeReg(Ctx, Reg::RAX, 4, false, Ctx.mkSExt(Ax, 32));
    }
    emitFall(std::move(NS));
    return Out;
  }

  case Mnemonic::Cqo: {
    SymState NS = S0;
    unsigned SW = I.OpSize * 8;
    const Expr *A = NS.P.readReg(Ctx, Reg::RAX, I.OpSize);
    const Expr *Sign = Ctx.mkOp(Opcode::AShr,
                                {A, Ctx.mkConst(SW - 1, SW)}, SW);
    NS.P.writeReg(Ctx, Reg::RDX, I.OpSize, false, Sign);
    emitFall(std::move(NS));
    return Out;
  }

  case Mnemonic::Nop:
  case Mnemonic::Endbr64: {
    emitFall(S0);
    return Out;
  }

  case Mnemonic::Syscall: {
    const Expr *Rax = S0.P.reg64(Reg::RAX);
    if (Rax->isConst() &&
        (Rax->constVal() == 60 || Rax->constVal() == 231))
      return Out; // exit / exit_group: terminal
    SymState NS = S0;
    NS.P.setReg64(Reg::RAX, Ctx.mkFresh("sys_rax"));
    NS.P.setReg64(Reg::RCX, Ctx.mkConst(Next, 64));
    NS.P.setReg64(Reg::R11, Ctx.mkFresh("sys_r11"));
    NS.P.clearFlags();
    emitFall(std::move(NS));
    return Out;
  }

  case Mnemonic::Int3:
  case Mnemonic::Ud2:
  case Mnemonic::Hlt:
    return Out; // terminal: no successors

  case Mnemonic::Invalid:
    return fail("undecodable instruction");
  }

  return fail("unsupported instruction");
}

} // namespace hglift::sem
