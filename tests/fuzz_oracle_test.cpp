//===- fuzz_oracle_test.cpp - Unit tests for the oracle's admission check -===//
//
// stateSatisfies(Pred, OracleCtx, Machine) is the judge the whole fuzzing
// campaign rests on: a wrong "satisfied" hides soundness bugs, a wrong
// "violated" makes every campaign red. These tests pin its behavior on
// handcrafted predicates against handcrafted machine states — register
// clauses, the four flag-abstraction kinds, memory cells, range clauses,
// fresh-leaf havoc, and bottom — including negative cases for each.
//
// arrivesAt gates the witness searcher's admission walks, so a property
// test holds it to walkFrom: wherever a walk can match a site, the bare
// run from the same entry state must arrive there.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "fuzz/Mutants.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <set>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::Opcode;
using expr::VarClass;
using fuzz::OracleCtx;
using fuzz::stateSatisfies;
using pred::FlagState;
using pred::Pred;
using pred::RelOp;
using sem::Machine;
using x86::Reg;
using x86::regFromNum;
using x86::regNum;

namespace {

/// Shared fixture: an empty image (all loads fall back to zero), an
/// expression context with the usual init-register variables, and an
/// OracleCtx whose Init file is a recognizable pattern.
class StateSatisfiesTest : public ::testing::Test {
protected:
  StateSatisfiesTest() : CC(Img), M(Img) {
    CC.Ctx = &Ctx;
    for (unsigned RI = 0; RI < x86::NumGPRs; ++RI) {
      CC.Init[RI] = 0x1000 + RI;
      InitVar[RI] = Ctx.mkVar(VarClass::InitReg,
                              x86::regName(regFromNum(RI)) + "0");
      M.Regs[RI] = CC.Init[RI]; // machine starts agreeing with Init
    }
    CC.RetAddr = kRetAddr;
  }
  static constexpr uint64_t kRetAddr = 0x7fffbeef;

  elf::BinaryImage Img;
  ExprContext Ctx;
  OracleCtx CC;
  Machine M;
  std::array<const Expr *, x86::NumGPRs> InitVar;
};

TEST_F(StateSatisfiesTest, EmptyPredAdmitsAnything) {
  Pred P;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.Regs[0] = 0xdead;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, BottomAdmitsNothing) {
  Pred P;
  P.setBottom();
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseConst) {
  Pred P;
  P.setReg64(Reg::RAX, Ctx.mkConst(42));
  M.setReg(Reg::RAX, 42);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::RAX, 43);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseInitVar) {
  // rbx == rdi0 + 5
  Pred P;
  P.setReg64(Reg::RBX, Ctx.mkAddK(InitVar[regNum(Reg::RDI)], 5));
  M.setReg(Reg::RBX, CC.Init[regNum(Reg::RDI)] + 5);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::RBX, CC.Init[regNum(Reg::RDI)] + 6);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseFreshIsHavoc) {
  // A claim mentioning a Fresh variable admits any machine value; the
  // same goes for External-class variables (results of external calls).
  Pred P;
  P.setReg64(Reg::RCX, Ctx.mkFresh("join"));
  M.setReg(Reg::RCX, 0x1234567812345678ull);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  P.setReg64(Reg::RCX, Ctx.mkAddK(Ctx.mkVar(VarClass::External, "malloc_ret"),
                                  8));
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RetAddrVariableGrounded) {
  Pred P;
  P.setReg64(Reg::R8, Ctx.mkVar(VarClass::RetAddr, "a_r"));
  M.setReg(Reg::R8, kRetAddr);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::R8, kRetAddr + 1);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmp) {
  // Flags claimed as cmp(7, 5): ZF=0 SF=0 CF=0 OF=0.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(7), Ctx.mkConst(5), 64);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.CF = true; // cmp pins all four flags
  EXPECT_FALSE(stateSatisfies(P, CC, M));
  M.CF = false, M.ZF = true;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmpBorrow) {
  // cmp(5, 7): borrow sets CF, result is negative in 64-bit.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(5), Ctx.mkConst(7), 64);
  M.ZF = false, M.SF = true, M.CF = true, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.SF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmpWidth32) {
  // cmp32(0x80000000, 1): 0x80000000 - 1 = 0x7fffffff → SF=0, OF=1.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(0x80000000ull), Ctx.mkConst(1), 32);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.OF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsTest) {
  // test(6, 2): result 2 → ZF=0 SF=0, and test always clears CF/OF.
  Pred P;
  P.setFlagsTest(Ctx.mkConst(6), Ctx.mkConst(2), 64);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.OF = true; // test pins CF=OF=0
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsResPinsOnlyZfSf) {
  // Res claims only ZF/SF of the result; CF/OF are unconstrained.
  Pred P;
  P.setFlagsRes(Ctx.mkConst(0), 64);
  M.ZF = true, M.SF = false, M.CF = true, M.OF = true; // CF/OF: don't care
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.ZF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsZeroOfPinsOnlyZf) {
  Pred P;
  P.setFlagsZeroOf(Ctx.mkConst(3), 64);
  M.ZF = false, M.SF = true, M.CF = true, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.ZF = true;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsFreshOperandSkipped) {
  Pred P;
  P.setFlagsCmp(Ctx.mkFresh("f"), Ctx.mkConst(5), 64);
  M.ZF = true, M.SF = true, M.CF = true, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M)); // havoc operand: skip the clause
}

TEST_F(StateSatisfiesTest, MemCell) {
  Pred P;
  P.setCell(Ctx.mkConst(0x5000), 8, Ctx.mkConst(0xabcdef));
  M.store(0x5000, 8, 0xabcdef);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x5000, 8, 0xabcdee);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellNarrowIsMasked) {
  // A 4-byte cell only constrains 4 bytes; the claimed value is compared
  // after masking to the cell width.
  Pred P;
  P.setCell(Ctx.mkConst(0x6000), 4, Ctx.mkConst(0xffffffff11223344ull));
  M.store(0x6000, 4, 0x11223344);
  M.store(0x6004, 4, 0x55667788); // adjacent bytes are unconstrained
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x6000, 1, 0x45);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellVarAddress) {
  // *[rdi0 + 0x10] == rsi0 — both sides grounded through the Init file.
  Pred P;
  unsigned RDI = regNum(Reg::RDI), RSI = regNum(Reg::RSI);
  P.setCell(Ctx.mkAddK(InitVar[RDI], 0x10), 8, InitVar[RSI]);
  M.store(CC.Init[RDI] + 0x10, 8, CC.Init[RSI]);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(CC.Init[RDI] + 0x10, 8, CC.Init[RSI] ^ 1);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellFreshSkipped) {
  Pred P;
  P.setCell(Ctx.mkConst(0x7000), 8, Ctx.mkFresh("havoc"));
  M.store(0x7000, 8, 0x1234);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RangeClauses) {
  unsigned RDX = regNum(Reg::RDX);
  {
    Pred P;
    P.addRange(InitVar[RDX], RelOp::ULt, 0x2000);
    EXPECT_TRUE(stateSatisfies(P, CC, M)); // Init[RDX] = 0x1000 + rdx
  }
  {
    Pred P;
    P.addRange(InitVar[RDX], RelOp::UGt, 0x2000);
    EXPECT_FALSE(stateSatisfies(P, CC, M));
  }
  {
    // Signed comparison: -1 < 0 signed but not unsigned. (Constant
    // expressions are dropped by addRange, so ground through an init
    // variable instead.)
    unsigned R9 = regNum(Reg::R9);
    CC.Init[R9] = 0xffffffffffffffffull;
    Pred P;
    P.addRange(InitVar[R9], RelOp::SLt, 0);
    EXPECT_TRUE(stateSatisfies(P, CC, M));
    Pred Q;
    Q.addRange(InitVar[R9], RelOp::ULt, 0);
    EXPECT_FALSE(stateSatisfies(Q, CC, M));
  }
}

TEST_F(StateSatisfiesTest, ConjunctionFailsOnAnyClause) {
  Pred P;
  P.setReg64(Reg::RAX, Ctx.mkConst(1));
  P.setCell(Ctx.mkConst(0x8000), 8, Ctx.mkConst(2));
  M.setReg(Reg::RAX, 1);
  M.store(0x8000, 8, 2);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x8000, 8, 3); // one violated clause sinks the conjunction
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

// ------------------------------------------------- arrival gate (arrivesAt)

/// The rips a walk matches the way the witness searcher reads it: every
/// executed rip, plus the rip a violation is reported at and the one
/// executed just before it.
std::set<uint64_t> matchedRips(const fuzz::WalkResult &WR) {
  std::set<uint64_t> Out(WR.Trace.begin(), WR.Trace.end());
  if (WR.Violated) {
    Out.insert(WR.V.Addr);
    if (WR.V.PrevRip)
      Out.insert(WR.V.PrevRip);
  }
  return Out;
}

TEST(ArrivalGate, EveryRipAWalkMatchesArrives) {
  // For every explored rip X of every lifted function: if the walkFrom
  // run matches X, arrivesAt(X) from the same entry state holds. Lifts
  // with each registry mutant installed give walks that stop on
  // violations; small step bounds put X at the bound's edge.
  std::vector<std::pair<std::string, std::optional<corpus::BuiltBinary>>>
      Programs = {
          {"straightline", corpus::straightlineBinary()},
          {"branchloop", corpus::branchLoopBinary()},
          {"callchain", corpus::callChainBinary()},
          {"ret2win", corpus::ret2winBinary()},
          {"weirdedge", corpus::weirdEdgeBinary()},
      };
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    corpus::GenOptions G;
    G.Seed = Seed;
    Programs.push_back({"random" + std::to_string(Seed),
                        corpus::randomBinary(G)});
  }
  std::vector<const fuzz::Mutant *> Lifts{nullptr};
  for (const fuzz::Mutant &M : fuzz::mutantRegistry())
    Lifts.push_back(&M);

  size_t Matched = 0, Missed = 0, Refused = 0, Violations = 0;
  for (auto &[Name, BB] : Programs) {
    ASSERT_TRUE(BB.has_value()) << Name;
    for (const fuzz::Mutant *Mu : Lifts) {
      std::string What = Name + (Mu ? " lifted with " + Mu->Name : "");
      Session S(BB->Img, hglift::Options());
      if (Mu) {
        fuzz::MutantInstall MI(*Mu);
        S.lift();
      }
      const hg::BinaryResult &R = S.lift();
      Rng Rand(0xa77);
      for (const hg::FunctionResult &F : R.Functions) {
        if (F.Outcome != hg::LiftOutcome::Lifted || !F.Arena)
          continue;
        std::set<uint64_t> Rips = F.Graph.instructionAddrs();
        for (int State = 0; State < 4; ++State) {
          uint64_t Seed = Rand.next();
          std::array<uint64_t, x86::NumGPRs> Regs{};
          for (uint64_t &V : Regs)
            V = Rand.chance(1, 2) ? Rand.below(16) : Rand.next();
          for (int MaxSteps : {1, 2, 3, 5, 300}) {
            fuzz::WalkResult WR =
                fuzz::walkFrom(BB->Img, F, Regs, Seed, MaxSteps);
            Violations += WR.Violated;
            std::set<uint64_t> Hit = matchedRips(WR);
            for (uint64_t X : Hit)
              EXPECT_TRUE(Rips.count(X))
                  << What << ": matched rip " << hexStr(X)
                  << " has no explored vertex";
            for (uint64_t X : Rips) {
              bool Arrives =
                  fuzz::arrivesAt(BB->Img, F, Regs, Seed, X, MaxSteps);
              Refused += !Arrives;
              if (!Hit.count(X))
                continue;
              ++Matched;
              if (!Arrives && !Missed++)
                ADD_FAILURE() << What << ": the walk from "
                              << hexStr(F.Entry) << " matches "
                              << hexStr(X) << " within " << MaxSteps
                              << " steps but arrivesAt says no";
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(Missed, 0u) << "of " << Matched << " matched rips";
  EXPECT_GT(Matched, 0u);
  EXPECT_GT(Violations, 0u) << "no walk stopped on a violation";
  EXPECT_GT(Refused, 0u) << "arrivesAt never said no: it gates nothing";
}

} // namespace
