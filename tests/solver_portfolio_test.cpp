//===- solver_portfolio_test.cpp - Tiered-portfolio differential harness --===//
//
// The tiered relation solver (smt/RelationSolver.h) must never buy speed
// with wrong answers. This harness proves it two ways:
//
//   * differential replay: lift a corpus with query logging on, then push
//     every recorded query back through each tier in isolation via
//     decideWithTierOnly(). A forced-Z3 replay (fresh solver, admission
//     filter off) is the trusted oracle; tiers 0/1 must never contradict
//     it, and every query the portfolio answered Unknown — including all
//     admission-filter skips — must be one the oracle cannot decide
//     either, i.e. the filter forfeits no definite answer on this corpus;
//   * adversarial queries: handcrafted predicates from the two clause
//     classes the cheap tiers actually reason about — unsigned range
//     clauses (ULt/ULe/UGe/UGt) and the loop-join bounds widening
//     produces — checked tier-against-oracle at hostile boundary values.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "smt/RelationSolver.h"

#include <gtest/gtest.h>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::VarClass;
using pred::Pred;
using pred::RelOp;
using smt::MemRel;
using smt::Region;
using smt::RelationSolver;
using smt::Tier;

namespace {

bool definite(MemRel R) { return R != MemRel::Unknown; }

/// Lift one corpus binary with query logging on and hand each function's
/// solver and stats to Fn. The arena (and with it every logged expression)
/// stays alive for the duration of the callback.
template <typename F>
void withLoggedLift(std::optional<corpus::BuiltBinary> BB, bool Library,
                    F &&Fn) {
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  Cfg.Solver.LogQueries = true;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = Library ? L.liftLibrary() : L.liftBinary();
  for (hg::FunctionResult &FR : R.Functions) {
    if (!FR.Arena)
      continue;
    Fn(FR.Arena->solver(), FR.Stats);
  }
}

/// Replay every logged query of one solver through every tier and check
/// the differential invariants. Returns the number of queries replayed.
size_t replaySolverLog(RelationSolver &S) {
  size_t N = 0;
  for (const RelationSolver::LoggedQuery &Q : S.queryLog()) {
    ++N;
    Region R0{Q.A0, Q.S0}, R1{Q.A1, Q.S1};
    // Dead-branch predicates (contradictory clauses) make every
    // necessarily-relation hold vacuously, so Z3 "proves" whichever
    // probe runs first while the structural tiers answer from shape;
    // any combination of answers is consistent there. Detect them with
    // the oracle itself: a region can only be separate from *itself*
    // under an unsatisfiable predicate.
    if (S.decideWithTierOnly(R0, R0, Q.P, Tier::Z3).Rel == MemRel::MustSep)
      continue;
    RelationSolver::Decision T0 =
        S.decideWithTierOnly(R0, R1, Q.P, Tier::Syntactic);
    RelationSolver::Decision T1 =
        S.decideWithTierOnly(R0, R1, Q.P, Tier::Interval);
    RelationSolver::Decision Oracle =
        S.decideWithTierOnly(R0, R1, Q.P, Tier::Z3);

    // Soundness: a cheap tier that commits to a definite relation must
    // agree with the oracle whenever the oracle can decide at all.
    if (definite(T0.Rel) && definite(Oracle.Rel))
      EXPECT_EQ(T0.Rel, Oracle.Rel) << "tier 0 contradicts Z3";
    if (definite(T1.Rel) && definite(Oracle.Rel))
      EXPECT_EQ(T1.Rel, Oracle.Rel) << "tier 1 contradicts Z3";
    // Tier 0 and tier 1 reason from the same clause set; if both commit,
    // they must commit to the same relation.
    if (definite(T0.Rel) && definite(T1.Rel))
      EXPECT_EQ(T0.Rel, T1.Rel) << "tier 0 contradicts tier 1";

    // Determinism: the tier recorded as deciding the live query must
    // reproduce the recorded answer in isolation.
    if (Q.DecidedBy == Tier::Syntactic)
      EXPECT_EQ(T0.Rel, Q.Rel);
    else if (Q.DecidedBy == Tier::Interval)
      EXPECT_EQ(T1.Rel, Q.Rel);

    // Zero-disagreement gate for the admission filter: every query the
    // portfolio answered Unknown (which includes every skipped tier-2
    // round trip) is one the unfiltered oracle cannot decide either.
    if (Q.DecidedBy == Tier::None)
      EXPECT_EQ(Oracle.Rel, MemRel::Unknown)
          << "admission filter (or fallthrough) dropped a definite answer";
  }
  return N;
}

TEST(PortfolioDifferential, CorpusReplayNoTierContradictsZ3) {
  size_t Replayed = 0;
  auto Replay = [&](RelationSolver &S, const LiftStats &) {
    Replayed += replaySolverLog(S);
  };
  withLoggedLift(corpus::branchLoopBinary(), false, Replay);
  withLoggedLift(corpus::jumpTableBinary(), false, Replay);
  withLoggedLift(corpus::overflowBinary(), false, Replay);
  // A loop/join-heavy generated library: where widening bounds and
  // repeated relation queries actually accumulate.
  corpus::GenOptions G;
  G.Seed = 0x40710a;
  G.NumFuncs = 6;
  G.TargetInstrs = 120;
  G.JumpTablePct = 30;
  G.Name = "portfolio_lib";
  withLoggedLift(corpus::randomLibrary(G), true, Replay);
  // The harness is vacuous if nothing was logged; the corpus above is
  // known to produce thousands of computed decisions.
  EXPECT_GT(Replayed, 100u);
}

TEST(PortfolioDifferential, LogRecordsOnlyComputedDecisions) {
  withLoggedLift(corpus::branchLoopBinary(), false,
                 [&](RelationSolver &S, const LiftStats &St) {
    // The log holds exactly the computed relate() decisions (cache hits
    // are re-deliveries, not new answers; the corpus is far below
    // LogCap), and every one is attributed to exactly one tier or the
    // fallthrough bucket.
    EXPECT_EQ(St.SolverTier0Hits + St.SolverTier1Hits + St.SolverClassHits +
                  St.SolverTier2Hits + St.SolverFallthroughs,
              S.queryLog().size());
    // The cache counters also cover mustEqual() memoization, so they
    // bound the decide() traffic from above.
    EXPECT_GE(St.RelCacheHits + St.RelCacheMisses, St.SolverQueries);
    EXPECT_LE(S.queryLog().size(), St.RelCacheMisses);
  });
}

/// Handcrafted adversarial fixture: build queries directly against a
/// scratch context, compare each cheap tier with the forced-Z3 oracle.
struct Adversarial : ::testing::Test {
  ExprContext Ctx;
  RelationSolver Solver{Ctx};
  LiftStats Stats;
  Pred P{Pred::entry(Ctx)};
  const Expr *Idx = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *Base = Ctx.mkVar(VarClass::InitReg, "rsi0");

  Adversarial() { Solver.setLiftStats(&Stats); }

  void expectConsistent(const Expr *A0, uint32_t S0, const Expr *A1,
                        uint32_t S1) {
    Region R0{A0, S0}, R1{A1, S1};
    MemRel T0 = Solver.decideWithTierOnly(R0, R1, P, Tier::Syntactic).Rel;
    MemRel T1 = Solver.decideWithTierOnly(R0, R1, P, Tier::Interval).Rel;
    MemRel Z = Solver.decideWithTierOnly(R0, R1, P, Tier::Z3).Rel;
    if (definite(T0) && definite(Z))
      EXPECT_EQ(T0, Z);
    if (definite(T1) && definite(Z))
      EXPECT_EQ(T1, Z);
    // The full portfolio's committed answers must match the oracle too.
    MemRel Full = Solver.decide(R0, R1, P).Rel;
    if (definite(Full) && definite(Z))
      EXPECT_EQ(Full, Z);
  }
};

TEST_F(Adversarial, UnsignedClauseBoundaries) {
  // Unsigned clauses at hostile boundaries: an index bounded with UGe/UGt
  // near wraparound, queried against regions that sit exactly at the
  // bound. Tier 1's interval arithmetic must saturate, never wrap.
  P.addRange(Idx, RelOp::UGe, 0xffffffffffffff00ull);
  P.addRange(Idx, RelOp::ULe, 0xffffffffffffff20ull);
  for (int64_t K : {-0x100ll, -0x20ll, -1ll, 0ll, 1ll, 0x20ll, 0x100ll})
    expectConsistent(Ctx.mkAddK(Idx, K), 8, Ctx.mkConst(0x601000), 8);

  // UGt at the top of the space: [b+1, max].
  Pred Q = Pred::entry(Ctx);
  Q.addRange(Base, RelOp::UGt, 0xfffffffffffffff0ull);
  P = Q;
  expectConsistent(Base, 8, Ctx.mkConst(0x10), 8);
  expectConsistent(Ctx.mkAddK(Base, 8), 8, Base, 8);
}

TEST_F(Adversarial, LoopJoinBoundClauses) {
  // The clause shape widening leaves behind: a loop counter i with
  // 0 <= i <= n (small constant), addressing base + i scaled by element
  // size. A one-past-the-end slot must stay separate; an in-range slot
  // must stay undecided (never falsely separate).
  P.addRange(Idx, RelOp::ULe, 16); // i in [0, 16] after the join
  const Expr *Elem = Ctx.mkAdd(Base, Idx);
  // Slot just past the widened bound: base+17..base+24 vs base+i (8b).
  expectConsistent(Ctx.mkAddK(Base, 17), 8, Elem, 8);
  // Inside the bound: overlap is possible, nothing may claim separation.
  MemRel In =
      Solver.decideWithTierOnly({Ctx.mkAddK(Base, 8), 8}, {Elem, 8}, P,
                                Tier::Interval)
          .Rel;
  EXPECT_NE(In, MemRel::MustSep);
  expectConsistent(Ctx.mkAddK(Base, 8), 8, Elem, 8);
  // And the boundary value itself, one byte short of clearance.
  expectConsistent(Ctx.mkAddK(Base, 16), 8, Elem, 8);
  expectConsistent(Ctx.mkAddK(Base, 24), 8, Elem, 8);
}

TEST_F(Adversarial, ForcedTierIsolationBypassesCache) {
  // decideWithTierOnly must not read or pollute the decision cache: a
  // cached full-portfolio answer must not leak into a forced replay, and
  // replays must not seed entries the live path then serves back.
  const Expr *A = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8);
  const Expr *B = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -16);
  uint64_t Hits0 = Stats.RelCacheHits;
  MemRel Live = Solver.decide({A, 8}, {B, 8}, P).Rel;
  EXPECT_EQ(Live, MemRel::MustSep);
  // Forced syntactic replay answers from structure, not from the cache.
  EXPECT_EQ(Solver.decideWithTierOnly({A, 8}, {B, 8}, P, Tier::Syntactic).Rel,
            MemRel::MustSep);
  // Forced None decides nothing, ever.
  EXPECT_EQ(Solver.decideWithTierOnly({A, 8}, {B, 8}, P, Tier::None).Rel,
            MemRel::Unknown);
  EXPECT_EQ(Stats.RelCacheHits, Hits0)
      << "forced replays must not count as cache traffic";
}

} // namespace
