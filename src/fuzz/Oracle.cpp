//===- Oracle.cpp - Concrete-execution soundness oracle -------------------===//

#include "fuzz/Oracle.h"

#include "semantics/SymExec.h"
#include "support/Format.h"

#include <cassert>

namespace hglift::fuzz {

using expr::Expr;
using expr::maskToWidth;
using expr::signExtend;
using sem::CtrlKind;
using sem::Machine;
using sem::StepOut;
using sem::Succ;
using x86::NumGPRs;
using x86::Reg;
using x86::regFromNum;
using x86::regName;

expr::VarValuation OracleCtx::vars() const {
  // Names of the init-register variables ("rax0", ...), by register number.
  static const std::array<std::string, NumGPRs> InitNames = [] {
    std::array<std::string, NumGPRs> N;
    for (unsigned RI = 0; RI < NumGPRs; ++RI)
      N[RI] = regName(regFromNum(RI)) + "0";
    return N;
  }();
  return [this](uint32_t Id) -> uint64_t {
    const expr::VarInfo &VI = Ctx->varInfo(Id);
    if (VI.Cls == expr::VarClass::RetSym || VI.Cls == expr::VarClass::RetAddr)
      return RetAddr;
    for (unsigned RI = 0; RI < NumGPRs; ++RI)
      if (VI.Name == InitNames[RI])
        return Init[RI];
    return 0; // Fresh/External: callers skip clauses with fresh leaves
  };
}

expr::MemOracle OracleCtx::initMem() const {
  return [this](uint64_t A, uint32_t Sz) { return EntryM.load(A, Sz); };
}

namespace {

/// Does the tracked flag abstraction agree with the machine's flags? Each
/// FlagState kind constrains a different subset: Cmp and Test pin all of
/// ZF/SF/CF/OF, Res pins ZF/SF (the producing instructions disagree on
/// CF/OF, which the abstraction therefore never derives), ZeroOf pins ZF.
/// On disagreement, fills *Fail with the pinned subset and expected bits.
bool flagsSatisfied(const pred::FlagState &F, const OracleCtx &CC,
                    const Machine &M, SatFailure *Fail) {
  using Kind = pred::FlagState::Kind;
  if (F.K == Kind::Unknown)
    return true;
  if (!F.L || F.L->hasFreshLeaf() || (F.R && F.R->hasFreshLeaf()))
    return true; // havoc operand: existentially quantified, skip
  auto Vars = CC.vars();
  auto InitMem = CC.initMem();
  auto L = expr::evalExpr(F.L, Vars, InitMem);
  if (!L)
    return true;
  std::optional<uint64_t> R;
  if (F.R) {
    R = expr::evalExpr(F.R, Vars, InitMem);
    if (!R)
      return true;
  }
  unsigned W = F.Width;
  auto fill = [&](const char *Pinned, bool ZF, bool SF, bool CF, bool OF) {
    if (!Fail)
      return;
    Fail->K = SatFailure::Kind::Flags;
    Fail->Evaluated = true;
    Fail->FlagsPinned = Pinned;
    Fail->ExpZF = ZF;
    Fail->ExpSF = SF;
    Fail->ExpCF = CF;
    Fail->ExpOF = OF;
  };
  switch (F.K) {
  case Kind::Unknown:
    return true;
  case Kind::Cmp: {
    // Flags of L - R (sem::Machine flagsSub).
    uint64_t MA = maskToWidth(*L, W), MB = maskToWidth(R ? *R : 0, W);
    uint64_t Res = maskToWidth(MA - MB, W);
    bool ZF = Res == 0, SF = signExtend(Res, W) < 0, CF = MA < MB;
    bool SA = signExtend(MA, W) < 0, SB = signExtend(MB, W) < 0;
    bool OF = (SA != SB) && (SF != SA);
    if (M.ZF == ZF && M.SF == SF && M.CF == CF && M.OF == OF)
      return true;
    fill("zsco", ZF, SF, CF, OF);
    return false;
  }
  case Kind::Test: {
    // Flags of L & R with CF = OF = 0 (sem::Machine flagsLogic).
    uint64_t Res = maskToWidth(*L & (R ? *R : 0), W);
    bool ZF = Res == 0, SF = signExtend(Res, W) < 0;
    if (M.ZF == ZF && M.SF == SF && !M.CF && !M.OF)
      return true;
    fill("zsco", ZF, SF, false, false);
    return false;
  }
  case Kind::Res: {
    uint64_t Res = maskToWidth(*L, W);
    bool ZF = Res == 0, SF = signExtend(Res, W) < 0;
    if (M.ZF == ZF && M.SF == SF)
      return true;
    fill("zs", ZF, SF, false, false);
    return false;
  }
  case Kind::ZeroOf: {
    bool ZF = maskToWidth(*L, W) == 0;
    if (M.ZF == ZF)
      return true;
    fill("z", ZF, false, false, false);
    return false;
  }
  }
  return true;
}

/// Render the symbolic text of a FlagState clause.
std::string flagsClauseText(const pred::FlagState &F,
                            const expr::ExprContext &Ctx) {
  using Kind = pred::FlagState::Kind;
  const char *K = F.K == Kind::Cmp    ? "cmp"
                  : F.K == Kind::Test ? "test"
                  : F.K == Kind::Res  ? "res"
                                      : "zeroof";
  std::string S = std::string("flags ") + K + "(";
  if (F.L)
    S += F.L->str(Ctx);
  if (F.R)
    S += ", " + F.R->str(Ctx);
  S += ", w" + std::to_string(F.Width) + ")";
  return S;
}

} // namespace

std::optional<SatFailure> stateSatisfiesExplain(const pred::Pred &P,
                                                const OracleCtx &CC,
                                                const Machine &M,
                                                bool RenderClause) {
  if (P.isBottom()) {
    SatFailure F;
    F.K = SatFailure::Kind::Bottom;
    if (RenderClause)
      F.Clause = "false";
    return F;
  }
  auto Vars = CC.vars();
  auto InitMem = CC.initMem();
  for (unsigned RI = 0; RI < NumGPRs; ++RI) {
    const Expr *V = P.reg64(regFromNum(RI));
    if (!V || V->hasFreshLeaf())
      continue;
    auto EV = expr::evalExpr(V, Vars, InitMem);
    if (!EV || *EV != M.Regs[RI]) {
      SatFailure F;
      F.K = SatFailure::Kind::Reg;
      F.RegNum = RI;
      if (EV) {
        F.Evaluated = true;
        F.Expect = *EV;
      }
      if (RenderClause && CC.Ctx)
        F.Clause = regName(regFromNum(RI)) + " == " + V->str(*CC.Ctx);
      return F;
    }
  }
  {
    SatFailure F;
    if (!flagsSatisfied(P.flags(), CC, M, &F)) {
      if (RenderClause && CC.Ctx)
        F.Clause = flagsClauseText(P.flags(), *CC.Ctx);
      return F;
    }
  }
  for (const pred::MemCell &C : P.cells()) {
    if (C.Addr->hasFreshLeaf() || C.Val->hasFreshLeaf())
      continue;
    auto A = expr::evalExpr(C.Addr, Vars, InitMem);
    auto V = expr::evalExpr(C.Val, Vars, InitMem);
    bool OK = A && V && M.load(*A, C.Size) == maskToWidth(*V, C.Size * 8);
    if (OK)
      continue;
    SatFailure F;
    F.K = SatFailure::Kind::Mem;
    F.MemSize = C.Size;
    if (A && V) {
      F.Evaluated = true;
      F.MemAddr = *A;
      F.Expect = maskToWidth(*V, C.Size * 8);
    }
    if (RenderClause && CC.Ctx)
      F.Clause = "[" + C.Addr->str(*CC.Ctx) + "]:" +
                 std::to_string(C.Size) + " == " + C.Val->str(*CC.Ctx);
    return F;
  }
  for (const pred::RangeClause &C : P.ranges()) {
    if (C.E->hasFreshLeaf())
      continue;
    auto EV = expr::evalExpr(C.E, Vars, InitMem);
    if (EV && pred::relHolds(C.Op, *EV, C.Bound))
      continue;
    SatFailure F;
    F.K = SatFailure::Kind::Range;
    F.Op = C.Op;
    F.Bound = C.Bound;
    if (EV) {
      F.Evaluated = true;
      F.Value = *EV;
    }
    if (RenderClause && CC.Ctx)
      F.Clause = C.E->str(*CC.Ctx) + " " + pred::relOpName(C.Op) + " " +
                 std::to_string(C.Bound);
    return F;
  }
  return std::nullopt;
}

bool stateSatisfies(const pred::Pred &P, const OracleCtx &CC,
                    const Machine &M) {
  return !stateSatisfiesExplain(P, CC, M, /*RenderClause=*/false).has_value();
}

/// Explored vertices of F at the given rip.
std::vector<const hg::Vertex *> verticesAt(const hg::FunctionResult &F,
                                           uint64_t Rip) {
  std::vector<const hg::Vertex *> Out;
  for (auto It = F.Graph.Vertices.lower_bound(hg::VertexKey{Rip, 0});
       It != F.Graph.Vertices.end() && It->first.Rip == Rip; ++It)
    if (It->second.Explored)
      Out.push_back(&It->second);
  return Out;
}

namespace {

/// The stop rule walkFrom and arrivesAt share: a walk goes on only while
/// some explored vertex of F sits at the concrete rip. Control elsewhere
/// has left the function (a callee frame, an external stub).
bool walkContinuesAt(const hg::FunctionResult &F, uint64_t Rip) {
  for (auto It = F.Graph.Vertices.lower_bound(hg::VertexKey{Rip, 0});
       It != F.Graph.Vertices.end() && It->first.Rip == Rip; ++It)
    if (It->second.Explored)
      return true;
  return false;
}

/// The concrete entry state of both walks: a call frame at F.Entry, every
/// register but RSP from InitRegs.
Machine entryMachine(const elf::BinaryImage &Img, const hg::FunctionResult &F,
                     const std::array<uint64_t, NumGPRs> &InitRegs,
                     uint64_t MachineSeed) {
  Machine M(Img, MachineSeed);
  M.setupCall(F.Entry);
  for (unsigned RI = 0; RI < NumGPRs; ++RI)
    if (regFromNum(RI) != Reg::RSP)
      M.setReg(regFromNum(RI), InitRegs[RI]);
  return M;
}

} // namespace

bool arrivesAt(const elf::BinaryImage &Img, const hg::FunctionResult &F,
               const std::array<uint64_t, NumGPRs> &InitRegs,
               uint64_t MachineSeed, uint64_t Site, int MaxSteps) {
  Machine M = entryMachine(Img, F, InitRegs, MachineSeed);
  for (int Step = 0; Step < MaxSteps; ++Step) {
    if (!walkContinuesAt(F, M.Rip))
      return false;
    if (M.Rip == Site)
      return true;
    if (M.step() != Machine::Status::Running)
      return false;
  }
  return false;
}

WalkResult walkFrom(const elf::BinaryImage &Img, const hg::FunctionResult &F,
                    const std::array<uint64_t, x86::NumGPRs> &InitRegs,
                    uint64_t MachineSeed, int MaxSteps) {
  assert(!sem::installedStepMutator() &&
         "oracle must run with clean semantics");
  WalkResult Out;
  Machine M = entryMachine(Img, F, InitRegs, MachineSeed);

  OracleCtx CC(Img);
  CC.Ctx = &F.ctx();
  CC.Init = M.Regs;
  CC.RetAddr = M.load(M.reg(Reg::RSP), 8);
  CC.EntryM = M;

  sem::SymExec &Exec = F.Arena->exec();
  uint64_t Prev = 0; // rip executed just before the current one

  auto violate = [&](WalkViolation::Kind K, uint64_t Addr, std::string Msg) {
    Out.Violated = true;
    Out.V.K = K;
    Out.V.Addr = Addr;
    Out.V.PrevRip = Prev;
    Out.V.Message = std::move(Msg);
  };

  for (int Step = 0; Step < MaxSteps; ++Step) {
    uint64_t Rip = M.Rip;
    if (!walkContinuesAt(F, Rip))
      break;
    auto Vs = verticesAt(F, Rip);

    // Property 1: some invariant at this rip covers the concrete state.
    ++Out.States;
    std::vector<const hg::Vertex *> Admitting;
    for (const hg::Vertex *V : Vs)
      if (!stateSatisfiesExplain(V->State.P, CC, M, /*RenderClause=*/false))
        Admitting.push_back(V);
    if (Admitting.empty()) {
      violate(WalkViolation::Kind::NoAdmittingVertex, Rip,
              "no vertex at " + hexStr(Rip) +
                  " admits the concrete state (" +
                  std::to_string(Vs.size()) + " vertices)");
      // Designate the first vertex's invariant and re-explain with the
      // symbolic clause text rendered.
      if (auto Fail = stateSatisfiesExplain(Vs[0]->State.P, CC, M)) {
        Out.V.HasFail = true;
        Out.V.Fail = std::move(*Fail);
      }
      break;
    }

    bool WasCall = Admitting[0]->Instr.isCall();
    Machine::Status St = M.step();
    if (St == Machine::Status::Returned || St == Machine::Status::Halted) {
      if (St == Machine::Status::Returned) {
        // Property 2 (return): an admitting vertex must have a Ret edge.
        bool HasRet = false;
        for (const hg::Vertex *V : Admitting)
          for (const hg::Edge &E : F.Graph.edges())
            HasRet |= E.From == V->Key && E.To.Rip == hg::RetTargetRip;
        if (!HasRet)
          violate(WalkViolation::Kind::MissingRetEdge, Rip,
                  "concrete return at " + hexStr(Rip) + " has no Ret edge");
      }
      break;
    }
    if (St != Machine::Status::Running)
      break; // fault/limit on a random register file: out of scope
    if (WasCall && M.Rip != Admitting[0]->Instr.nextAddr())
      break; // internal call: execution descended into the callee frame;
             // the symbolic successor models the return site instead

    // Property 2: some symbolic successor of an admitting vertex admits
    // the concrete post-state (or the step hit an annotated indirection).
    bool Covered = false, Annotated = false;
    std::optional<SatFailure> SuccFail;
    for (const hg::Vertex *V : Admitting) {
      StepOut SO = Exec.step(V->State, V->Instr, F.RetSym);
      if (SO.VerifError)
        continue;
      for (const Succ &S : SO.Succs) {
        if (S.K == CtrlKind::UnresJump) {
          Annotated = true; // annotation B overapproximates any target
          continue;
        }
        if (S.NextAddr != M.Rip)
          continue;
        auto Fail = stateSatisfiesExplain(S.S.P, CC, M);
        if (!Fail) {
          Covered = true;
          break;
        }
        if (!SuccFail)
          SuccFail = std::move(*Fail);
      }
      if (Covered)
        break;
    }
    if (!Covered && !Annotated) {
      violate(WalkViolation::Kind::SuccessorNotAdmitted, Rip,
              "concrete step " + hexStr(Rip) + " -> " + hexStr(M.Rip) +
                  " not admitted by any symbolic successor");
      Out.V.NextRip = M.Rip;
      if (SuccFail) {
        Out.V.HasFail = true;
        Out.V.Fail = std::move(*SuccFail);
      }
      break;
    }
    Prev = Rip;
    if (Annotated && !Covered)
      break; // symbolic exploration stopped at the annotation
  }
  Out.Trace = M.trace();
  return Out;
}

void walkOnce(const elf::BinaryImage &Img, const hg::FunctionResult &F,
              Rng &R, OracleResult &Out) {
  // Draw the entry state exactly as the oracle always has: machine seed
  // first, then per non-RSP register a 1-in-3 small value, else full
  // random. walkFrom replays the deterministic core.
  uint64_t MachineSeed = R.next();
  std::array<uint64_t, NumGPRs> Init{};
  for (unsigned RI = 0; RI < NumGPRs; ++RI) {
    if (regFromNum(RI) == Reg::RSP)
      continue;
    Init[RI] = R.chance(1, 3) ? R.below(1000) : R.next();
  }
  ++Out.Runs;
  WalkResult WR = walkFrom(Img, F, Init, MachineSeed);
  Out.States += WR.States;
  if (WR.Violated)
    Out.Violations.push_back(OracleViolation{F.Entry, WR.V.Addr, WR.V.Message});
}

OracleResult runOracle(const elf::BinaryImage &Img,
                       const hg::BinaryResult &R, uint64_t Seed,
                       int RunsPerFunction) {
  OracleResult Out;
  Rng Rand(Seed);
  for (const hg::FunctionResult &F : R.Functions) {
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    for (int I = 0; I < RunsPerFunction; ++I)
      walkOnce(Img, F, Rand, Out);
  }
  return Out;
}

} // namespace hglift::fuzz
