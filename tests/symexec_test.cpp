//===- symexec_test.cpp - Differential testing of τ (Lemma 4.5) ----------===//
//
// The paper assumes the instruction semantics τ is correct:
//
//   s →B s' ∧ s ⊢ P  ⟹  ∃Q ∈ τ(P, M) · s' ⊢ Q
//
// Ours is hand-written, so we check it differentially: for randomly
// generated single instructions and random concrete start states, execute
// concretely with the Machine and symbolically with SymExec from the
// matching entry predicate, then verify some symbolic successor covers the
// concrete result (register values via evaluation under the initial-state
// valuation).
//
//===----------------------------------------------------------------------===//

#include "corpus/ProgramBuilder.h"
#include "semantics/Machine.h"
#include "semantics/SymExec.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace hglift;
using namespace hglift::x86;
using corpus::ProgramBuilder;
using expr::Expr;
using expr::ExprContext;
using sem::CtrlKind;
using sem::Machine;
using sem::StepOut;
using sem::Succ;
using sem::SymExec;
using sem::SymState;

namespace {

/// Emit one random non-control instruction.
void emitRandomInstr(Asm &A, Rng &R) {
  static const Reg Regs[] = {Reg::RAX, Reg::RCX, Reg::RDX, Reg::RBX,
                             Reg::RSI, Reg::RDI, Reg::R8,  Reg::R9,
                             Reg::R12, Reg::R15};
  auto Pick = [&]() { return Regs[R.below(std::size(Regs))]; };
  unsigned Sz = R.chance(1, 3) ? 4 : 8;
  Reg D = Pick(), S = Pick();
  switch (R.below(14)) {
  case 0:
    A.movRR(D, S, Sz);
    break;
  case 1:
    A.movRI(D, R.range(-100000, 100000), Sz);
    break;
  case 2:
    A.addRR(D, S, Sz);
    break;
  case 3:
    A.subRR(D, S, Sz);
    break;
  case 4:
    A.arithRR(Mnemonic::And, D, S, Sz);
    break;
  case 5:
    A.arithRR(Mnemonic::Or, D, S, Sz);
    break;
  case 6:
    A.arithRR(Mnemonic::Xor, D, S, Sz);
    break;
  case 7:
    A.imulRRI(D, S, static_cast<int32_t>(R.range(-9, 9)), Sz == 4 ? 4 : 8);
    break;
  case 8:
    A.shiftRI(R.chance(1, 2) ? Mnemonic::Shl : Mnemonic::Shr, D,
              static_cast<uint8_t>(R.range(1, 31)), Sz);
    break;
  case 9:
    A.leaRM(D, MemOperand{S, Pick(), static_cast<uint8_t>(1u << R.below(4)),
                          static_cast<int32_t>(R.range(-64, 64)), false},
            8);
    break;
  case 10:
    A.negR(D, Sz);
    break;
  case 11:
    A.notR(D, Sz);
    break;
  case 12:
    A.movzxRR(D, S, R.chance(1, 2) ? 1 : 2, Sz);
    break;
  case 13:
    A.incR(D, Sz);
    break;
  }
}

TEST(SymExecDifferential, SingleInstructionCoverage) {
  Rng R(0xd1ff);
  for (int Iter = 0; Iter < 400; ++Iter) {
    ProgramBuilder PB("diff");
    Asm &A = PB.text();
    Asm::Label F = A.newLabel();
    A.bind(F);
    emitRandomInstr(A, R);
    A.ret();
    auto BB = PB.build(F);
    ASSERT_TRUE(BB.has_value());

    // Decode the instruction under test.
    size_t Avail;
    const uint8_t *Bytes = BB->Img.bytesAt(BB->Img.Entry, Avail);
    Instr I = decodeInstr(Bytes, Avail, BB->Img.Entry);
    ASSERT_TRUE(I.isValid());

    // Concrete: random start state.
    Machine M(BB->Img, R.next());
    M.setupCall(BB->Img.Entry);
    std::array<uint64_t, NumGPRs> Init;
    for (unsigned RI = 0; RI < NumGPRs; ++RI) {
      if (regFromNum(RI) == Reg::RSP) {
        Init[RI] = M.reg(Reg::RSP);
        continue;
      }
      Init[RI] = R.chance(1, 3) ? R.below(1000) : R.next();
      M.setReg(regFromNum(RI), Init[RI]);
    }
    uint64_t RetAddr = M.load(M.reg(Reg::RSP), 8);
    ASSERT_EQ(M.step(), Machine::Status::Running);

    // Symbolic: step τ from the entry predicate.
    ExprContext Ctx;
    smt::RelationSolver Solver(Ctx);
    SymExec Exec(Ctx, Solver, BB->Img, sem::SymConfig());
    const Expr *RetSym =
        Ctx.mkVar(expr::VarClass::RetSym, "S_f", 64, BB->Img.Entry);
    SymState S0;
    S0.P = pred::Pred::entry(Ctx, RetSym);
    S0.M.Forest.mut().push_back(
        mem::MemTree{{smt::Region{S0.P.reg64(Reg::RSP), 8}}, {}});
    StepOut Out = Exec.step(S0, I, RetSym);
    ASSERT_FALSE(Out.VerifError) << I.str() << ": " << Out.VerifReason;
    ASSERT_FALSE(Out.Succs.empty()) << I.str();

    // Valuation of the initial-state variables.
    auto Vars = [&](uint32_t Id) -> uint64_t {
      const expr::VarInfo &VI = Ctx.varInfo(Id);
      if (VI.Cls == expr::VarClass::RetSym)
        return RetAddr;
      for (unsigned RI = 0; RI < NumGPRs; ++RI)
        if (VI.Name == regName(regFromNum(RI)) + "0")
          return Init[RI];
      return 0; // fresh variables handled below
    };
    auto InitMem = [&](uint64_t Addr, uint32_t Size) {
      return M.load(Addr, Size); // memory unchanged by these instructions
    };

    bool Covered = false;
    for (const Succ &S : Out.Succs) {
      if (S.K != CtrlKind::Fall || S.NextAddr != M.Rip)
        continue;
      bool AllMatch = true;
      for (unsigned RI = 0; RI < NumGPRs && AllMatch; ++RI) {
        const Expr *V = S.S.P.reg64(regFromNum(RI));
        if (V->hasFreshLeaf())
          continue; // havoc: covers anything
        auto EV = expr::evalExpr(V, Vars, InitMem);
        AllMatch &= EV.has_value() && *EV == M.reg(regFromNum(RI));
      }
      Covered |= AllMatch;
    }
    EXPECT_TRUE(Covered) << "iter " << Iter << ": " << I.str()
                         << " concrete result not covered";
  }
}

TEST(SymExecDifferential, ConditionalBranchesBothWays) {
  // The flags come from `cmp rdi, imm` or `test rdi, rdi` at every
  // operand width: a signed condition on a narrow compare sign-extends
  // both sides from that width, not from 64 bits.
  enum class Form { CmpImm, TestSelf };
  Rng R(0xbb);
  for (Form Fm : {Form::CmpImm, Form::TestSelf})
    for (unsigned Width : {1u, 2u, 4u, 8u})
      for (int Iter = 0; Iter < 300; ++Iter) {
        ProgramBuilder PB("diffjcc");
        Asm &A = PB.text();
        Asm::Label F = A.newLabel(), T = A.newLabel();
        static const Cond Conds[] = {Cond::E,  Cond::NE, Cond::B, Cond::AE,
                                     Cond::BE, Cond::A,  Cond::L, Cond::GE,
                                     Cond::LE, Cond::G,  Cond::S, Cond::NS};
        Cond CC = Conds[R.below(std::size(Conds))];
        int32_t K = static_cast<int32_t>(R.range(-100, 100));
        A.bind(F);
        if (Fm == Form::CmpImm)
          A.cmpRI(Reg::RDI, K, Width);
        else
          A.testRR(Reg::RDI, Reg::RDI, Width);
        A.jccL(CC, T);
        A.movRI(Reg::RAX, 0, 8);
        A.ret();
        A.bind(T);
        A.movRI(Reg::RAX, 1, 8);
        A.ret();
        auto BB = PB.build(F);
        ASSERT_TRUE(BB.has_value());

        uint64_t Rdi = R.chance(1, 2)
                           ? static_cast<uint64_t>(R.range(-110, 110))
                           : R.next();

        Machine M(BB->Img);
        M.setupCall(BB->Img.Entry);
        M.setReg(Reg::RDI, Rdi);
        ASSERT_EQ(M.run(10), Machine::Status::Returned);
        uint64_t Taken = M.reg(Reg::RAX);

        // Symbolic: lift the flag setter, then the jcc; the branch whose
        // clauses admit the concrete rdi must lead the right way.
        ExprContext Ctx;
        smt::RelationSolver Solver(Ctx);
        SymExec Exec(Ctx, Solver, BB->Img, sem::SymConfig());
        const Expr *RetSym =
            Ctx.mkVar(expr::VarClass::RetSym, "S_f", 64, BB->Img.Entry);
        SymState S0;
        S0.P = pred::Pred::entry(Ctx, RetSym);
        size_t Avail;
        const uint8_t *Bytes = BB->Img.bytesAt(BB->Img.Entry, Avail);
        Instr FlagI = decodeInstr(Bytes, Avail, BB->Img.Entry);
        StepOut O1 = Exec.step(S0, FlagI, RetSym);
        ASSERT_EQ(O1.Succs.size(), 1u);
        const uint8_t *B2 = BB->Img.bytesAt(FlagI.nextAddr(), Avail);
        Instr JccI = decodeInstr(B2, Avail, FlagI.nextAddr());
        ASSERT_EQ(JccI.Mn, Mnemonic::Jcc);
        StepOut O2 = Exec.step(O1.Succs[0].S, JccI, RetSym);

        auto Vars = [&](uint32_t Id) -> uint64_t {
          return Ctx.varInfo(Id).Name == "rdi0" ? Rdi : 0;
        };
        auto Mem = [](uint64_t, uint32_t) -> uint64_t { return 0; };
        uint64_t WantRip = Taken ? static_cast<uint64_t>(JccI.Ops[0].Imm)
                                 : JccI.nextAddr();
        bool Covered = false;
        for (const Succ &S : O2.Succs) {
          if (S.NextAddr != WantRip)
            continue;
          // The successor's range clauses must hold for the concrete rdi.
          bool ClausesOK = true;
          for (const pred::RangeClause &C : S.S.P.ranges()) {
            auto V = expr::evalExpr(C.E, Vars, Mem);
            ClausesOK &= V && pred::relHolds(C.Op, *V, C.Bound);
          }
          Covered |= ClausesOK;
        }
        EXPECT_TRUE(Covered)
            << (Fm == Form::CmpImm ? "cmp" : "test") << " width " << Width
            << " cond " << condName(CC) << " K=" << K << " rdi=" << Rdi
            << " taken=" << Taken;
      }
}

} // namespace
