//===- smt_test.cpp - The necessarily-relation solver (Def. 3.6) ---------===//

#include "smt/RelationSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::Opcode;
using expr::VarClass;
using pred::Pred;
using pred::RelOp;
using smt::AllocClass;
using smt::MemRel;
using smt::Region;
using smt::RelationSolver;

namespace {

struct Fixture {
  ExprContext Ctx;
  RelationSolver Solver{Ctx};
  LiftStats Stats;
  Pred P{Pred::entry(Ctx)};
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *Rsi0 = Ctx.mkVar(VarClass::InitReg, "rsi0");

  Fixture() { Solver.setLiftStats(&Stats); }

  MemRel rel(const Expr *A0, uint32_t S0, const Expr *A1, uint32_t S1) {
    return Solver.relate(Region{A0, S0}, Region{A1, S1}, P);
  }
};

TEST(RelationSolver, ConstantDeltas) {
  Fixture F;
  auto At = [&](int64_t K) { return F.Ctx.mkAddK(F.Rsp0, K); };
  EXPECT_EQ(F.rel(At(0), 8, At(0), 8), MemRel::MustAlias);
  EXPECT_EQ(F.rel(At(0), 8, At(8), 8), MemRel::MustSep);
  EXPECT_EQ(F.rel(At(8), 8, At(0), 8), MemRel::MustSep);
  EXPECT_EQ(F.rel(At(0), 4, At(0), 8), MemRel::MustEnc01);
  EXPECT_EQ(F.rel(At(4), 4, At(0), 8), MemRel::MustEnc01);
  EXPECT_EQ(F.rel(At(0), 8, At(4), 4), MemRel::MustEnc10);
  EXPECT_EQ(F.rel(At(4), 8, At(0), 8), MemRel::MustPartial);
  EXPECT_EQ(F.rel(At(-4), 8, At(0), 8), MemRel::MustPartial);
}

TEST(RelationSolver, ExhaustivePartialOverlapCases) {
  // §1: "two 8 byte regions can partially overlap in 14 ways". Check the
  // classifier over every delta in [-8, 8].
  Fixture F;
  unsigned Partials = 0;
  for (int64_t D = -8; D <= 8; ++D) {
    MemRel R = F.rel(F.Ctx.mkAddK(F.Rsp0, D), 8, F.Rsp0, 8);
    if (D == 0)
      EXPECT_EQ(R, MemRel::MustAlias);
    else if (D <= -8 || D >= 8)
      EXPECT_EQ(R, MemRel::MustSep);
    else {
      EXPECT_EQ(R, MemRel::MustPartial) << "delta " << D;
      ++Partials;
    }
  }
  EXPECT_EQ(Partials, 14u);
}

TEST(RelationSolver, IntervalSeparation) {
  // [rsp0 - 0x20 + 8*i, 8] with i ≤ 2 is separate from [rsp0, 8]: the
  // bounded-stack-array case that licenses return-address integrity.
  Fixture F;
  const Expr *I32 = F.Ctx.mkTrunc(F.Rdi0, 32);
  F.P.addRange(I32, RelOp::ULe, 2);
  const Expr *Idx = F.Ctx.mkZExt(I32, 64);
  const Expr *A = F.Ctx.mkAddK(
      F.Ctx.mkAdd(F.Rsp0,
                  F.Ctx.mkBin(Opcode::Mul, Idx, F.Ctx.mkConst(8, 64))),
      -0x20);
  EXPECT_EQ(F.rel(A, 8, F.Rsp0, 8), MemRel::MustSep);
  // Without the bound the same query is unknown (or a branch point).
  Fixture G;
  const Expr *IdxU = G.Ctx.mkZExt(G.Ctx.mkTrunc(G.Rdi0, 32), 64);
  const Expr *AU = G.Ctx.mkAddK(
      G.Ctx.mkAdd(G.Rsp0,
                  G.Ctx.mkBin(Opcode::Mul, IdxU, G.Ctx.mkConst(8, 64))),
      -0x20);
  EXPECT_EQ(G.rel(AU, 8, G.Rsp0, 8), MemRel::Unknown);
}

TEST(RelationSolver, AllocationClassAssumptions) {
  Fixture F;
  // Stack vs pointer argument: assumed separate, with an obligation.
  EXPECT_EQ(F.rel(F.Rsp0, 8, F.Rdi0, 8), MemRel::MustSep);
  EXPECT_FALSE(F.Solver.assumptions().empty());
  // Stack vs global: assumed separate.
  EXPECT_EQ(F.rel(F.Ctx.mkAddK(F.Rsp0, -16), 8,
                  F.Ctx.mkConst(0x500000, 64), 8),
            MemRel::MustSep);
  // Two pointer arguments: *not* assumed; unknown.
  EXPECT_EQ(F.rel(F.Rdi0, 8, F.Rsi0, 8), MemRel::Unknown);
  // Pointer argument vs global: not assumed (args may point to globals).
  EXPECT_EQ(F.rel(F.Rdi0, 8, F.Ctx.mkConst(0x500000, 64), 8),
            MemRel::Unknown);
}

TEST(RelationSolver, AssumptionsCanBeDisabled) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.AllocClassAssumptions = false;
  Cfg.UseZ3 = false;
  RelationSolver Solver(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  EXPECT_EQ(Solver.relate(Region{Rsp0, 8}, Region{Rdi0, 8}, P),
            MemRel::Unknown);
  EXPECT_TRUE(Solver.assumptions().empty());
}

TEST(RelationSolver, ClassifyAddr) {
  Fixture F;
  auto Cls = [&](const Expr *E) { return smt::classifyAddr(E, F.Ctx); };
  EXPECT_EQ(Cls(F.Rsp0), AllocClass::StackFrame);
  EXPECT_EQ(Cls(F.Ctx.mkAddK(F.Rsp0, -100)), AllocClass::StackFrame);
  EXPECT_EQ(Cls(F.Ctx.mkConst(0x404000, 64)), AllocClass::Global);
  EXPECT_EQ(Cls(F.Rdi0), AllocClass::ArgPtr);
  EXPECT_EQ(Cls(F.Ctx.mkAddK(F.Rdi0, 24)), AllocClass::ArgPtr);
  const Expr *Heap = F.Ctx.mkVar(VarClass::External, "ret_malloc@0x1");
  EXPECT_EQ(Cls(Heap), AllocClass::Heap);
  // Indexed global: still global space.
  const Expr *Idx = F.Ctx.mkZExt(F.Ctx.mkTrunc(F.Rdi0, 32), 64);
  EXPECT_EQ(Cls(F.Ctx.mkAddK(
                F.Ctx.mkBin(Opcode::Mul, Idx, F.Ctx.mkConst(8, 64)),
                0x404000)),
            AllocClass::Global);
  // Mixed bases: Other.
  EXPECT_EQ(Cls(F.Ctx.mkAdd(F.Rsp0, F.Rdi0)), AllocClass::Other);
}

TEST(RelationSolver, MustEqual) {
  Fixture F;
  EXPECT_TRUE(F.Solver.mustEqual(F.Ctx.mkAddK(F.Rsp0, 8),
                                 F.Ctx.mkAddK(F.Ctx.mkAddK(F.Rsp0, 16), -8),
                                 F.P));
  EXPECT_FALSE(F.Solver.mustEqual(F.Rsp0, F.Rdi0, F.P));
}

#ifdef HGLIFT_WITH_Z3
TEST(RelationSolver, Z3ResolvesResidualQueries) {
  // An unsigned lower bound is invisible to the signed interval core (the
  // signed view wraps), so only the bit-vector backend can prove the
  // separation.
  Fixture F;
  F.P.addRange(F.Rdi0, RelOp::UGe, 0x600000);
  EXPECT_EQ(F.rel(F.Rdi0, 8, F.Ctx.mkConst(0x500000, 64), 8),
            MemRel::MustSep);
  EXPECT_GT(F.Stats.Z3Queries, 0u);
  EXPECT_GT(F.Stats.SolverTier2Hits, 0u);
}

TEST(RelationSolver, Z3ProvesAlias) {
  // x ≥u c ∧ x ≤u c pins x = c, but the two clauses only meet in the
  // bit-vector theory (UGe contributes nothing to the signed interval).
  Fixture F;
  F.P.addRange(F.Rdi0, RelOp::UGe, 0x7fffffffffff0000ull);
  F.P.addRange(F.Rdi0, RelOp::ULe, 0x7fffffffffff0000ull);
  EXPECT_EQ(F.rel(F.Rdi0, 8,
                  F.Ctx.mkConst(0x7fffffffffff0000ull, 64), 8),
            MemRel::MustAlias);
}
#endif

TEST(RelationSolver, StatsAccounting) {
  Fixture F;
  auto Before = F.Stats.SolverQueries;
  F.rel(F.Rsp0, 8, F.Ctx.mkAddK(F.Rsp0, 32), 8);
  EXPECT_EQ(F.Stats.SolverQueries, Before + 1);
  EXPECT_GT(F.Stats.SolverTier0Hits, 0u);
}

/// Property: syntactic decisions agree with concrete evaluation.
TEST(RelationSolverProperty, DecisionsSoundOnConstOffsets) {
  ExprContext Ctx;
  RelationSolver Solver(Ctx);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  Rng R(0x5150);
  for (int Iter = 0; Iter < 2000; ++Iter) {
    int64_t D0 = R.range(-64, 64), D1 = R.range(-64, 64);
    uint32_t S0 = R.chance(1, 2) ? 8 : 4, S1 = R.chance(1, 2) ? 8 : 4;
    MemRel Rel = Solver.relate(Region{Ctx.mkAddK(Rsp0, D0), S0},
                               Region{Ctx.mkAddK(Rsp0, D1), S1}, P);
    // Concrete check with an arbitrary base.
    uint64_t BaseV = 0x7fff0000;
    uint64_t A0 = BaseV + static_cast<uint64_t>(D0);
    uint64_t A1 = BaseV + static_cast<uint64_t>(D1);
    bool Alias = A0 == A1 && S0 == S1;
    bool Sep = A0 + S0 <= A1 || A1 + S1 <= A0;
    bool Enc01 = A0 >= A1 && A0 + S0 <= A1 + S1;
    bool Enc10 = A1 >= A0 && A1 + S1 <= A0 + S0;
    switch (Rel) {
    case MemRel::MustAlias:
      EXPECT_TRUE(Alias);
      break;
    case MemRel::MustSep:
      EXPECT_TRUE(Sep);
      break;
    case MemRel::MustEnc01:
      EXPECT_TRUE(Enc01);
      break;
    case MemRel::MustEnc10:
      EXPECT_TRUE(Enc10);
      break;
    case MemRel::MustPartial:
      EXPECT_TRUE(!Alias && !Sep && !Enc01 && !Enc10);
      break;
    case MemRel::Unknown:
      ADD_FAILURE() << "constant deltas must always be decided";
      break;
    }
  }
}

} // namespace
