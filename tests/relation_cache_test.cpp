//===- relation_cache_test.cpp - Hot-path caching correctness ------------===//
//
// The caching layer must be invisible: every answer a cached solver gives
// is the answer a solver with an empty cache gives, mutating a predicate
// can never resurrect a stale entry, the leq memo answers exactly
// Pred::leq / MemModel::leq, and the lifting pipeline produces identical
// results serially and in parallel. Both caches are always on; these tests
// pin each property directly, on synthetic queries and on the traffic of
// real lifts.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "hg/StateMemo.h"
#include "smt/RelationSolver.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::VarClass;
using pred::Pred;
using pred::RelOp;
using smt::MemRel;
using smt::Region;
using smt::RelationSolver;

namespace {

// --- version stamps -------------------------------------------------------

TEST(PredVersion, EveryMutatorBumps) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  uint64_t V = P.version();
  auto Bumped = [&](const char *What) {
    EXPECT_NE(P.version(), V) << What << " did not re-stamp";
    V = P.version();
  };

  P.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  Bumped("setReg64");
  P.writeReg(Ctx, x86::Reg::RBX, 4, false, Ctx.mkConst(2, 32));
  Bumped("writeReg");
  P.setFlagsCmp(Ctx.mkConst(1, 64), Ctx.mkConst(2, 64), 64);
  Bumped("setFlagsCmp");
  P.setFlagsTest(Ctx.mkConst(1, 64), Ctx.mkConst(1, 64), 64);
  Bumped("setFlagsTest");
  P.setFlagsRes(Ctx.mkConst(3, 64), 64);
  Bumped("setFlagsRes");
  P.setFlagsZeroOf(Ctx.mkConst(3, 64), 64);
  Bumped("setFlagsZeroOf");
  P.clearFlags();
  Bumped("clearFlags");

  const Expr *A = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8);
  P.setCell(A, 8, Ctx.mkConst(7, 64));
  Bumped("setCell");
  P.removeCell(A, 8);
  Bumped("removeCell");
  P.setCell(A, 8, Ctx.mkConst(7, 64));
  Bumped("setCell (re-add)");
  P.filterCells([](const pred::MemCell &) { return false; });
  Bumped("filterCells");

  const Expr *E = Ctx.mkVar(VarClass::InitReg, "rdi0");
  P.addRange(E, RelOp::ULe, 100);
  Bumped("addRange");
  P.clearRangesFor(E);
  Bumped("clearRangesFor");
  P.setBottom();
  Bumped("setBottom");
}

TEST(PredVersion, NoOpMutationsKeepStamp) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  const Expr *A = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8);
  const Expr *V7 = Ctx.mkConst(7, 64);
  P.setCell(A, 8, V7);
  uint64_t V = P.version();
  P.setCell(A, 8, V7); // same value: content unchanged
  EXPECT_EQ(P.version(), V);
  P.removeCell(A, 16); // no such cell
  EXPECT_EQ(P.version(), V);
  P.clearRangesFor(A); // no ranges on A
  EXPECT_EQ(P.version(), V);
}

TEST(PredVersion, CopiesShareStampUntilMutated) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  Pred Q = P;
  EXPECT_EQ(P.version(), Q.version());
  EXPECT_TRUE(P == Q);
  EXPECT_EQ(P.digest(), Q.digest());
  Q.setReg64(x86::Reg::RAX, Ctx.mkConst(5, 64));
  EXPECT_NE(P.version(), Q.version());
  EXPECT_FALSE(P == Q);
}

TEST(PredVersion, DigestFollowsContent) {
  // Two predicates built independently but identically have equal digests;
  // the digest memo keyed on the version stamp does not leak stale values
  // across mutations.
  ExprContext Ctx;
  Pred A = Pred::entry(Ctx), B = Pred::entry(Ctx);
  EXPECT_EQ(A.digest(), B.digest());
  A.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  uint64_t DMut = A.digest();
  EXPECT_NE(DMut, B.digest());
  B.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  EXPECT_EQ(A.digest(), B.digest());
}

// --- the relation cache ---------------------------------------------------

/// A pool of addresses exercising every solver layer: stack offsets,
/// argument-pointer offsets, globals, scaled indices.
std::vector<const Expr *> addrPool(ExprContext &Ctx, const Pred &P) {
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *Idx = Ctx.mkZExt(Ctx.mkTrunc(Rdi0, 32), 64);
  std::vector<const Expr *> Pool;
  for (int64_t K : {0, -8, -16, -24, 4})
    Pool.push_back(Ctx.mkAddK(Rsp0, K));
  for (int64_t K : {0, 8, 12})
    Pool.push_back(Ctx.mkAddK(Rdi0, K));
  Pool.push_back(Ctx.mkConst(0x404000, 64));
  Pool.push_back(Ctx.mkConst(0x404010, 64));
  Pool.push_back(Ctx.mkAddK(
      Ctx.mkAdd(Rsp0, Ctx.mkBin(expr::Opcode::Mul, Idx, Ctx.mkConst(8, 64))),
      -0x20));
  return Pool;
}

TEST(RelationCache, CachedMatchesUncachedRandomized) {
  // The exactness property: for a randomized workload of relate() and
  // mustEqual() queries — with repeats, so the cache actually hits — the
  // long-lived solver agrees on every single answer with a fresh solver
  // whose cache is empty. Z3 is off so both are pure functions of their
  // inputs.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver Cached(Ctx, Cfg);
  LiftStats Stats;
  Cached.setLiftStats(&Stats);

  Pred P = Pred::entry(Ctx);
  std::vector<const Expr *> Pool = addrPool(Ctx, P);
  Rng R(0xcac4e);
  const uint32_t Sizes[] = {1, 4, 8, 16};

  for (int Round = 0; Round < 4; ++Round) {
    for (int I = 0; I < 400; ++I) {
      Region R0{Pool[R.next() % Pool.size()],
                Sizes[R.next() % std::size(Sizes)]};
      Region R1{Pool[R.next() % Pool.size()],
                Sizes[R.next() % std::size(Sizes)]};
      RelationSolver Fresh(Ctx, Cfg);
      ASSERT_EQ(Cached.relate(R0, R1, P), Fresh.relate(R0, R1, P))
          << "round " << Round << " query " << I << ": " << R0.str(Ctx)
          << " vs " << R1.str(Ctx);
      ASSERT_EQ(Cached.mustEqual(R0.Addr, R1.Addr, P),
                RelationSolver(Ctx, Cfg).mustEqual(R0.Addr, R1.Addr, P));
    }
    // Evolve the predicate between rounds; old entries must never leak.
    const Expr *Idx = Ctx.mkTrunc(Pool[5], 32);
    P.addRange(Idx, RelOp::ULe, 2 + static_cast<uint64_t>(Round));
  }
  EXPECT_GT(Stats.RelCacheHits, 0u) << "workload never hit the cache";
  EXPECT_GT(Stats.RelCacheMisses, 0u);
}

TEST(RelationCache, RepeatQueryHitsMutationMisses) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  LiftStats Stats;
  S.setLiftStats(&Stats);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  Region R0{Ctx.mkAddK(Rsp0, -8), 8}, R1{Rsp0, 8};

  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  uint64_t Misses = Stats.RelCacheMisses;
  EXPECT_EQ(Stats.RelCacheHits, 0u);
  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  EXPECT_EQ(Stats.RelCacheHits, 1u) << "identical re-query must hit";
  EXPECT_EQ(Stats.RelCacheMisses, Misses);

  // Any mutation re-stamps P: same regions, fresh version, cache miss.
  uint64_t OldVer = P.version();
  P.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  EXPECT_NE(P.version(), OldVer);
  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  EXPECT_EQ(Stats.RelCacheHits, 1u);
  EXPECT_EQ(Stats.RelCacheMisses, Misses + 1)
      << "mutated predicate must not hit entries of its old version";
}

TEST(RelationCache, MutationNeverResurrectsStaleAnswer) {
  // The sharp version of invalidation: a mutation that *changes the
  // answer* for the same (regions) pair. A bounded index makes the access
  // separate from the return-address slot; the bound arriving after the
  // unbounded query was cached must not be shadowed by the stale entry,
  // and dropping the bound again must not leak the bounded answer.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *I32 = Ctx.mkTrunc(Rdi0, 32);
  const Expr *Idx = Ctx.mkZExt(I32, 64);
  const Expr *A = Ctx.mkAddK(
      Ctx.mkAdd(Rsp0, Ctx.mkBin(expr::Opcode::Mul, Idx, Ctx.mkConst(8, 64))),
      -0x20);
  Region RA{A, 8}, RRet{Rsp0, 8};

  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown); // cached
  P.addRange(I32, RelOp::ULe, 2);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::MustSep)
      << "stale Unknown survived the mutation";
  P.clearRangesFor(I32);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown)
      << "stale MustSep survived the mutation";
}

/// Distinct stack regions rsp0 - 8k, k < N: relating every ordered pair
/// under one predicate version fills N * N cache entries.
std::vector<Region> stackRegions(ExprContext &Ctx, const Pred &P, int64_t N) {
  std::vector<Region> Rs;
  for (int64_t K = 0; K < N; ++K)
    Rs.push_back(Region{Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8 * K), 8});
  return Rs;
}

TEST(RelationCache, CapSweepsStaleVersions) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  LiftStats Stats;
  S.setLiftStats(&Stats);
  Pred P = Pred::entry(Ctx);
  std::vector<Region> Rs = stackRegions(Ctx, P, 64);

  // More distinct (query, version) pairs than the cap holds: 64 * 64
  // entries per version, then a mutation re-stamps the predicate.
  const size_t Rounds = RelationSolver::CacheCap / (64 * 64) + 2;
  for (size_t Round = 0; Round < Rounds; ++Round) {
    for (const Region &A : Rs)
      for (const Region &B : Rs)
        S.relate(A, B, P);
    P.setReg64(x86::Reg::RAX, Ctx.mkConst(Round, 64));
  }
  EXPECT_GT(Stats.RelCacheInvalidated, 0u)
      << "cap never triggered the stale sweep";
  EXPECT_EQ(Stats.RelCacheEvicted, 0u)
      << "stale entries were there to sweep; nothing live had to go";
  // Exactness survives the churn.
  EXPECT_EQ(S.relate(Rs[1], Rs[0], P), MemRel::MustSep);
}

TEST(RelationCache, CapEvictsLiveEntriesWhenSweepFreesNothing) {
  // One hot predicate, never mutated: when the maps hit the cap there is
  // nothing stale to sweep, so the still-hittable entries are cleared.
  // That MUST be counted as eviction, not invalidation — the two have
  // opposite performance meanings (stale sweeps are free wins, live
  // evictions are capacity misses).
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  LiftStats Stats;
  S.setLiftStats(&Stats);
  Pred P = Pred::entry(Ctx);
  // N * N > CacheCap distinct queries under a single version.
  int64_t N = 1;
  while (static_cast<size_t>(N * N) <= RelationSolver::CacheCap)
    ++N;
  std::vector<Region> Rs = stackRegions(Ctx, P, N);
  for (const Region &A : Rs)
    for (const Region &B : Rs)
      S.relate(A, B, P);
  EXPECT_GT(Stats.RelCacheEvicted, 0u)
      << "cap under a single live version never cleared";
  EXPECT_EQ(Stats.RelCacheInvalidated, 0u)
      << "live-entry clears must not masquerade as stale sweeps";
  EXPECT_EQ(S.relate(Rs[1], Rs[0], P), MemRel::MustSep);
}

TEST(RelationCache, NoSweepCountersBelowCap) {
  // The healthy steady state — and the reason `rel_cache_invalidated: 0`
  // in --stats-json is not a dead counter: version-keyed entries make
  // mutation itself the invalidation (stale keys just stop being
  // queried), so the sweep counters only move when the cap forces a
  // cleanup. Below the cap both stay zero no matter how often the
  // predicate mutates.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  LiftStats Stats;
  S.setLiftStats(&Stats);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  for (int Round = 0; Round < 8; ++Round) {
    for (int64_t K = 0; K < 8; ++K)
      S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);
    P.setReg64(x86::Reg::RAX, Ctx.mkConst(Round, 64));
  }
  EXPECT_EQ(Stats.RelCacheInvalidated, 0u);
  EXPECT_EQ(Stats.RelCacheEvicted, 0u);
  EXPECT_GT(Stats.RelCacheMisses, 0u);
}

// --- the leq memo ---------------------------------------------------------

TEST(StateLeqMemo, MatchesDirectLeq) {
  // Randomized agreement between the memoized and the direct abstraction
  // order, with repeated probes so hits occur, plus counter plumbing.
  ExprContext Ctx;
  Rng R(0x1e9);
  std::vector<Pred> Preds;
  for (int I = 0; I < 8; ++I) {
    Pred P = Pred::entry(Ctx);
    if (R.next() % 2)
      P.setReg64(x86::Reg::RAX, Ctx.mkConst(R.next() % 3, 64));
    if (R.next() % 2)
      P.setCell(Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8), 8,
                Ctx.mkConst(R.next() % 3, 64));
    if (R.next() % 2)
      P.addRange(Ctx.mkVar(VarClass::InitReg, "rdi0"), RelOp::ULe,
                 R.next() % 5);
    Preds.push_back(std::move(P));
  }
  std::vector<mem::MemModel> Mems;
  for (int I = 0; I < 4; ++I) {
    mem::MemModel M;
    const Expr *Rsp0 = Preds[0].reg64(x86::Reg::RSP);
    M.Forest.mut().push_back(mem::MemTree{{Region{Rsp0, 8}}, {}});
    if (I % 2)
      M.Forest.mut().push_back(
          mem::MemTree{{Region{Ctx.mkAddK(Rsp0, -16), 8}}, {}});
    if (I >= 2)
      M.noteWrite(Region{Ctx.mkAddK(Rsp0, -16), 8});
    Mems.push_back(std::move(M));
  }

  LiftStats Stats;
  hg::StateLeqMemo Memo;
  Memo.setLiftStats(&Stats);
  for (int Pass = 0; Pass < 3; ++Pass) {
    for (const Pred &A : Preds)
      for (const Pred &B : Preds)
        ASSERT_EQ(Memo.predLeq(A, B), Pred::leq(A, B));
    for (const mem::MemModel &A : Mems)
      for (const mem::MemModel &B : Mems)
        ASSERT_EQ(Memo.memLeq(A, B), mem::MemModel::leq(A, B));
  }
  EXPECT_GT(Stats.LeqHits, 0u) << "repeated probes never hit the memo";
  EXPECT_GT(Stats.LeqMisses, 0u);
}

// --- exactness on real traffic --------------------------------------------

corpus::GenOptions trafficLibrary(uint64_t Seed, unsigned Funcs,
                                  unsigned Instrs, unsigned JumpTablePct) {
  corpus::GenOptions G;
  G.Seed = Seed;
  G.NumFuncs = Funcs;
  G.TargetInstrs = Instrs;
  G.JumpTablePct = JumpTablePct;
  G.Name = "traffic_lib";
  return G;
}

/// Lift each corpus program (loops, jump tables, calls, a rejection, and
/// two loop- and table-heavy generated libraries, the second with
/// Z3-decided queries) under Cfg and hand every function result to Fn
/// while its arena is alive.
template <typename F> void forEachCorpusFunction(const hg::LiftConfig &Cfg,
                                                 F &&Fn) {
  std::pair<std::optional<corpus::BuiltBinary>, bool> Corpus[] = {
      {corpus::branchLoopBinary(), false},
      {corpus::jumpTableBinary(), false},
      {corpus::callChainBinary(), false},
      {corpus::overflowBinary(), false},
      {corpus::stackProbeBinary(), false},
      {corpus::widenedGuardTableBinary(), false},
      {corpus::randomLibrary(trafficLibrary(0x40710a, 6, 120, 30)), true},
      {corpus::randomLibrary(trafficLibrary(0x5150, 4, 200, 20)), true},
  };
  for (auto &[BB, Library] : Corpus) {
    ASSERT_TRUE(BB.has_value());
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = Library ? L.liftLibrary() : L.liftBinary();
    for (hg::FunctionResult &FR : R.Functions)
      if (FR.Arena)
        Fn(FR);
  }
}

TEST(RelationCache, ExactOnLoggedLiftTraffic) {
  // Every decision a lift computed, asked again two ways: through the
  // function's own solver, where it is a cache hit (the logged predicate
  // copy keeps its version stamp), and through a fresh solver with an
  // empty cache. Logged, re-asked and fresh answers must agree. Each
  // logged query is also asked under 16 other logged predicates of the
  // same function, spread over its log — new versions for the own
  // solver's cache, where an entry that ignored the version would serve
  // another predicate's answer.
  hg::LiftConfig Cfg;
  Cfg.Solver.LogQueries = true;
  RelationSolver::Config FreshCfg = Cfg.Solver;
  FreshCfg.LogQueries = false;
  size_t Logged = 0, CrossAsked = 0, PredDependent = 0;
  forEachCorpusFunction(Cfg, [&](hg::FunctionResult &F) {
    RelationSolver &Own = F.Arena->solver();
    // A copy: a miss below would append to the live log.
    const std::vector<RelationSolver::LoggedQuery> Log = Own.queryLog();
    auto Fresh = [&](const Region &R0, const Region &R1, const Pred &P) {
      return RelationSolver(F.ctx(), FreshCfg).relate(R0, R1, P);
    };
    LiftStats Reask;
    Own.setLiftStats(&Reask);
    for (const RelationSolver::LoggedQuery &Q : Log) {
      Region R0{Q.A0, Q.S0}, R1{Q.A1, Q.S1};
      ASSERT_EQ(Own.relate(R0, R1, Q.P), Q.Rel)
          << hexStr(F.Entry) << ": " << R0.str(F.ctx()) << " vs "
          << R1.str(F.ctx());
      ASSERT_EQ(Fresh(R0, R1, Q.P), Q.Rel)
          << hexStr(F.Entry) << ": " << R0.str(F.ctx()) << " vs "
          << R1.str(F.ctx());
    }
    if (F.Stats.RelCacheInvalidated + F.Stats.RelCacheEvicted == 0) {
      EXPECT_EQ(Reask.RelCacheHits, Log.size())
          << hexStr(F.Entry) << ": a logged decision was not cached";
    }
    constexpr size_t CrossPreds = 16;
    for (size_t I = 0; I < Log.size(); ++I) {
      Region R0{Log[I].A0, Log[I].S0}, R1{Log[I].A1, Log[I].S1};
      for (size_t K = 0; K < CrossPreds; ++K) {
        const Pred &P =
            Log[(I + 1 + K * Log.size() / CrossPreds) % Log.size()].P;
        MemRel Ref = Fresh(R0, R1, P);
        ASSERT_EQ(Own.relate(R0, R1, P), Ref)
            << hexStr(F.Entry) << ": " << R0.str(F.ctx()) << " vs "
            << R1.str(F.ctx()) << " under " << P.str(F.ctx());
        ++CrossAsked;
        PredDependent += Ref != Log[I].Rel;
      }
    }
    Own.setLiftStats(nullptr);
    Logged += Log.size();
  });
  EXPECT_GT(Logged, 1000u);
  EXPECT_GT(CrossAsked, 3000u);
  // The cross-asks are vacuous unless some answer depends on the
  // predicate it is asked under.
  EXPECT_GT(PredDependent, 0u);
}

TEST(StateLeqMemo, ExactOnLiftedVertexStates) {
  // Every ordered pair of vertex states at one rip, probed twice through
  // one memo: each answer must be exactly Pred::leq and MemModel::leq, and
  // below the memo's cap the second pass is served from it entirely.
  // Lifts with joining (rips with several control-immediate vertices) and
  // without (states pile up at each rip; the fuel bound keeps it small).
  size_t Probed = 0, MixedRows = 0;
  for (bool Join : {true, false}) {
    hg::LiftConfig Cfg;
    Cfg.EnableJoin = Join;
    Cfg.MaxVertices = 300;
    forEachCorpusFunction(Cfg, [&](hg::FunctionResult &F) {
      std::map<uint64_t, std::vector<const sem::SymState *>> ByRip;
      for (const auto &[Key, V] : F.Graph.Vertices)
        ByRip[Key.Rip].push_back(&V.State);
      LiftStats Stats;
      hg::StateLeqMemo Memo;
      Memo.setLiftStats(&Stats);
      size_t Pairs = 0;
      uint64_t FirstPassMisses = 0;
      for (int Pass = 0; Pass < 2; ++Pass) {
        for (const auto &[Rip, States] : ByRip)
          for (const sem::SymState *A : States) {
            bool AnyLeq = false, AnyNot = false;
            for (const sem::SymState *B : States) {
              bool PL = Pred::leq(A->P, B->P);
              ASSERT_EQ(Memo.predLeq(A->P, B->P), PL) << hexStr(Rip);
              ASSERT_EQ(Memo.memLeq(A->M, B->M), mem::MemModel::leq(A->M, B->M))
                  << hexStr(Rip);
              (PL ? AnyLeq : AnyNot) = true;
              Pairs += Pass == 0;
            }
            MixedRows += Pass == 0 && AnyLeq && AnyNot;
          }
        if (Pass == 0)
          FirstPassMisses = Stats.LeqMisses;
      }
      if (Pairs < hg::StateLeqMemo::Cap) {
        EXPECT_EQ(Stats.LeqMisses, FirstPassMisses)
            << hexStr(F.Entry) << ": a repeated probe missed the memo";
      }
      Probed += Pairs;
    });
  }
  EXPECT_GT(Probed, 1000u);
  // A memo that confused (A, B) with (A, B') could only go unnoticed if
  // no state's answers depended on the second operand.
  EXPECT_GT(MixedRows, 0u);
}

// --- whole-pipeline identity ----------------------------------------------

std::string liftFingerprint(const corpus::BuiltBinary &BB,
                            const hg::LiftConfig &Cfg, bool Library) {
  hg::Lifter L(BB.Img, Cfg);
  hg::BinaryResult R = Library ? L.liftLibrary() : L.liftBinary();
  std::string S;
  S += std::string(hg::liftOutcomeName(R.Outcome)) + " " + R.FailReason + "\n";
  for (const hg::FunctionResult &F : R.Functions) {
    S += "fn " + hexStr(F.Entry) + " " + hg::liftOutcomeName(F.Outcome) +
         " ret " + std::to_string(F.MayReturn) + " v " +
         std::to_string(F.Graph.Vertices.size()) + " j " +
         std::to_string(F.Stats.Joins) + "\n";
    for (const auto &[Key, V] : F.Graph.Vertices)
      S += "  v " + hexStr(Key.Rip) + "/" + hexStr(Key.CtrlHash) + " P " +
           V.State.P.str(F.ctx()) + " M " + V.State.M.str(F.ctx()) + "\n";
    for (const hg::Edge &E : F.Graph.edges())
      S += "  e " + hexStr(E.From.Rip) + "->" + hexStr(E.To.Rip) + "\n";
    for (const std::string &O : F.Obligations)
      S += "  o " + O + "\n";
  }
  return S;
}

TEST(HotPath, SerialAndParallelIdenticalWithCachesOn) {
  // Version stamps are handed out from one process-wide atomic counter, so
  // concurrent lifts interleave stamp *values* — hit/miss behaviour (and
  // with it every result) must still be schedule-independent, because only
  // stamp equality within one function's lift can matter.
  corpus::GenOptions G;
  G.Seed = 0xca11;
  G.NumFuncs = 6;
  G.TargetInstrs = 35;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg; // both caches are always on
  Cfg.Threads = 1;
  std::string Serial = liftFingerprint(*BB, Cfg, true);
  for (unsigned T : {2u, 4u, 8u}) {
    Cfg.Threads = T;
    EXPECT_EQ(Serial, liftFingerprint(*BB, Cfg, true)) << "threads=" << T;
  }
}

} // namespace
