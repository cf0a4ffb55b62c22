//===- vsa_test.cpp - Binary-level value-set analysis ---------------------===//
//
// The VSA contract (docs/VSA.md):
//
//   * recognized table idioms (absolute, gcc -fPIC offset, and-masked,
//     guard-across-widened-loop) resolve to concrete target sets;
//   * every resolution is validated, never trusted: Step 2 re-derives the
//     same successors from the vertex invariant, and the deliberately
//     wrong `vsa-phantom-target` mutant dies there;
//   * `--no-vsa` (Options::Lift.Sym.Vsa = false) reproduces the legacy
//     resolver exactly — extended-only shapes degrade to annotations;
//   * unresolvable shapes (missing guard, reads past the table, truly
//     unbounded indices) still degrade to annotations with VSA on;
//   * reports are byte-identical across thread counts.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "fuzz/Campaign.h"
#include "fuzz/Mutants.h"
#include "hg/Lifter.h"

#include <cstdlib>
#include <gtest/gtest.h>
#include <sstream>

using namespace hglift;

namespace {

hg::BinaryResult liftIt(const corpus::BuiltBinary &BB, bool Vsa = true) {
  hg::LiftConfig Cfg;
  Cfg.Sym.Vsa = Vsa;
  hg::Lifter L(BB.Img, Cfg);
  return L.liftBinary();
}

uint64_t sumStat(const hg::BinaryResult &R,
                 uint64_t LiftStats::*Field) {
  uint64_t N = 0;
  for (const hg::FunctionResult &F : R.Functions)
    N += F.Stats.*Field;
  return N;
}

bool hasObligation(const hg::BinaryResult &R, const std::string &Needle) {
  for (const std::string &O : R.allObligations())
    if (O.find(Needle) != std::string::npos)
      return true;
  return false;
}

size_t tableEdges(const hg::BinaryResult &R) {
  size_t N = 0;
  for (const hg::FunctionResult &F : R.Functions)
    for (const hg::Edge &E : F.Graph.edges())
      if (E.ViaTable && E.To.Rip != hg::UnresolvedTargetRip)
        ++N;
  return N;
}

// --- idiom recognition ----------------------------------------------------

TEST(Vsa, OffsetTableResolved) {
  auto BB = corpus::offsetTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalA(), 1u) << "the offset table should be resolved";
  EXPECT_EQ(R.totalB(), 0u);
  // One edge per case (6 distinct targets), each tagged with the table.
  EXPECT_GE(tableEdges(R), 6u);
  EXPECT_GE(sumStat(R, &LiftStats::VsaResolved), 1u);
  EXPECT_TRUE(
      hasObligation(R, "vsa resolved indirect jump via jump-table@"))
      << "extended resolutions must carry a provenance obligation";
}

TEST(Vsa, OffsetTableAblated) {
  // --no-vsa: the offset-table idiom is extended-only, so the site must
  // degrade to today's unresolved-jump annotation — not a wrong edge.
  auto BB = corpus::offsetTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB, /*Vsa=*/false);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalB(), 1u);
  EXPECT_EQ(tableEdges(R), 0u);
  EXPECT_EQ(sumStat(R, &LiftStats::VsaQueries), 0u);
  EXPECT_FALSE(hasObligation(R, "vsa resolved"));
}

TEST(Vsa, MaskedTableResolved) {
  auto BB = corpus::maskedTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalA(), 1u) << "the and-mask bounds the index";
  EXPECT_EQ(R.totalB(), 0u);
  EXPECT_GE(tableEdges(R), 8u);
}

TEST(Vsa, MaskedTableAblated) {
  auto BB = corpus::maskedTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB, /*Vsa=*/false);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalB(), 1u) << "the legacy resolver cannot see the mask";
}

TEST(Vsa, CallbackTableResolvedCall) {
  auto BB = corpus::callbackTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalA(), 1u);
  EXPECT_EQ(R.totalC(), 0u) << "the handler array is fully resolved";
  // Each handler is a call edge carrying both callee and provenance.
  size_t CallEdges = 0;
  for (const hg::FunctionResult &F : R.Functions)
    for (const hg::Edge &E : F.Graph.edges())
      if (E.Kind == sem::CtrlKind::CallInternal && E.ViaTable) {
        EXPECT_NE(E.CalleeAddr, 0u);
        ++CallEdges;
      }
  EXPECT_GE(CallEdges, 4u);
  EXPECT_TRUE(hasObligation(R, "vsa resolved indirect call via jump-table@"));
}

TEST(Vsa, CallbackTableAblated) {
  auto BB = corpus::callbackTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB, /*Vsa=*/false);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalC(), 1u) << "legacy: an unresolved-call annotation";
}

TEST(Vsa, WidenedGuardNeedsRestart) {
  auto BB = corpus::widenedGuardTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalA(), 1u)
      << "the protected-interval restart recovers the guard";
  EXPECT_EQ(R.totalB(), 0u);
  EXPECT_GE(sumStat(R, &LiftStats::VsaRestarts), 1u);
}

TEST(Vsa, WidenedGuardAblated) {
  auto BB = corpus::widenedGuardTableBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB, /*Vsa=*/false);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalB(), 1u);
  EXPECT_EQ(sumStat(R, &LiftStats::VsaRestarts), 0u);
}

// --- unresolvable shapes stay annotations ---------------------------------

TEST(Vsa, GuardSlackReadsPastTable) {
  // The loosened guard admits indices past the table: some entry fails
  // the read-only/executable checks, so resolution must be abandoned
  // whole — never a partial target set.
  auto BB = corpus::jumpTableBinary(8, /*GuardSlack=*/8);
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalB(), 1u);
  EXPECT_EQ(tableEdges(R), 0u);
}

TEST(Vsa, UnguardedTableStaysUnresolved) {
  // Table-shaped but truly unbounded: no guard, no mask. The restart
  // machinery must give up (bounded attempts) and annotate.
  corpus::ProgramBuilder PB("unguarded_table");
  x86::Asm &A = PB.text();
  x86::Asm::Label Start = A.newLabel(), F = A.newLabel();
  std::vector<x86::Asm::Label> Cases;
  for (unsigned I = 0; I < 4; ++I)
    Cases.push_back(A.newLabel());
  uint64_t Table = PB.jumpTable(Cases);

  A.bind(Start);
  A.endbr64();
  A.callL(F);
  A.movRI(x86::Reg::RAX, 60, 4);
  A.xorRR(x86::Reg::RDI, x86::Reg::RDI, 4);
  A.syscall();

  A.bind(F);
  A.endbr64();
  A.movRR(x86::Reg::RAX, x86::Reg::RDI, 8);
  x86::MemOperand M;
  M.Index = x86::Reg::RAX;
  M.Scale = 8;
  M.Disp = static_cast<int32_t>(Table);
  A.jmpM(M);
  for (unsigned I = 0; I < 4; ++I) {
    A.bind(Cases[I]);
    A.movRI(x86::Reg::RAX, static_cast<int64_t>(I), 4);
    A.ret();
  }

  auto BB = PB.build(Start);
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalB(), 1u);
  EXPECT_EQ(tableEdges(R), 0u);
}

// --- validate, don't trust ------------------------------------------------

TEST(Vsa, Step2ReprovesResolutions) {
  // Every VSA-resolved edge is an ordinary proof obligation: the checker
  // re-derives the successors from the stored invariant and must cover
  // each one. All four table idioms prove end to end.
  std::optional<corpus::BuiltBinary> Subjects[] = {
      corpus::offsetTableBinary(), corpus::maskedTableBinary(),
      corpus::callbackTableBinary(), corpus::widenedGuardTableBinary()};
  for (auto &BB : Subjects) {
    ASSERT_TRUE(BB.has_value());
    Session S(BB->Img, Options());
    const hg::BinaryResult &R = S.lift();
    ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted)
        << BB->Name << ": " << R.FailReason;
    const exporter::CheckResult &C = S.check();
    EXPECT_GT(C.Theorems, 0u) << BB->Name;
    EXPECT_EQ(C.Proven, C.Theorems)
        << BB->Name << ": "
        << (C.Failures.empty() ? "" : C.Failures[0]);
  }
}

TEST(Vsa, PhantomTargetMutantKilledByStep2) {
  // A wrong resolution must die in Step 2, never ship as a silent claim:
  // the mutant redirects one resolved target during lifting; the clean
  // re-derivation produces the true target set and coverage fails.
  const fuzz::Mutant *M = fuzz::findMutant("vsa-phantom-target");
  ASSERT_NE(M, nullptr);
  std::optional<corpus::BuiltBinary> Subjects[] = {
      corpus::jumpTableBinary(8), corpus::offsetTableBinary(),
      corpus::callbackTableBinary()};
  for (auto &BB : Subjects) {
    ASSERT_TRUE(BB.has_value());
    Session S(BB->Img, Options());
    {
      fuzz::MutantInstall Install(*M); // corrupt Step 1 only
      const hg::BinaryResult &R = S.lift();
      ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted)
          << BB->Name << ": " << R.FailReason;
    }
    const exporter::CheckResult &C = S.check();
    EXPECT_LT(C.Proven, C.Theorems)
        << BB->Name << ": the checker must object to the phantom edge";
  }
}

// --- determinism ----------------------------------------------------------

TEST(Vsa, ReportBytesIdenticalAcrossThreads) {
  std::optional<corpus::BuiltBinary> Subjects[] = {
      corpus::offsetTableBinary(), corpus::callbackTableBinary(),
      corpus::widenedGuardTableBinary()};
  for (auto &BB : Subjects) {
    ASSERT_TRUE(BB.has_value());
    std::string Reports[2];
    for (unsigned T = 1; T <= 2; ++T) {
      Options O;
      O.Lift.Threads = T;
      Session S(BB->Img, O);
      S.lift();
      S.check();
      std::ostringstream OS;
      S.writeReportJson(OS);
      Reports[T - 1] = OS.str();
    }
    EXPECT_EQ(Reports[0], Reports[1]) << BB->Name;
  }
}

TEST(Vsa, StatsCountersExported) {
  auto BB = corpus::offsetTableBinary();
  ASSERT_TRUE(BB.has_value());
  Options O;
  Session S(BB->Img, O);
  S.lift();
  std::ostringstream OS;
  S.writeStatsJson(OS);
  const std::string J = OS.str();
  for (const char *Key :
       {"\"vsa_queries\"", "\"vsa_resolved\"", "\"vsa_targets\"",
        "\"vsa_restarts\""})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " missing:\n" << J;
}

TEST(Vsa, OptionsFacadeDrivesSymConfig) {
  // The facade contract: Options::Lift.Sym is the single VSA
  // configuration point; the Session lifts (and checks) with it unchanged.
  auto BB = corpus::maskedTableBinary();
  ASSERT_TRUE(BB.has_value());
  Options Off;
  Off.Lift.Sym.Vsa = false;
  Session S(BB->Img, Off);
  const hg::BinaryResult &R = S.lift();
  EXPECT_GE(R.totalB(), 1u);
  EXPECT_EQ(S.options().Lift.Sym.Vsa, false);

  Options Capped;
  Capped.Lift.Sym.VsaMaxTargets = 2; // 8 distinct targets > 2: aborts
  Session S2(BB->Img, Capped);
  const hg::BinaryResult &R2 = S2.lift();
  EXPECT_GE(R2.totalB(), 1u);
  EXPECT_EQ(S2.options().Lift.Sym.VsaMaxTargets, 2u);
}

// --- tier-2 soak: full mutant registry × the jump-table corpus ------------

bool soakEnabled() { return std::getenv("HGLIFT_VSA_SOAK") != nullptr; }

TEST(VsaSoak, RegistryAcrossTableCorpus) {
  if (!soakEnabled())
    GTEST_SKIP() << "set HGLIFT_VSA_SOAK=1 to run";
  // Every registered mutant against every table idiom: the pipeline must
  // never crash or hang, LiftOnly corruption must never survive a green
  // check as a wrong edge (either the lift degrades or Step 2 objects),
  // and the VSA mutant specifically must be killed on table subjects.
  unsigned PhantomKills = 0;
  for (const fuzz::Mutant &M : fuzz::mutantRegistry()) {
    std::optional<corpus::BuiltBinary> Subjects[] = {
        corpus::jumpTableBinary(8), corpus::offsetTableBinary(),
        corpus::maskedTableBinary(), corpus::callbackTableBinary(),
        corpus::widenedGuardTableBinary()};
    for (auto &BB : Subjects) {
      ASSERT_TRUE(BB.has_value());
      Session S(BB->Img, Options());
      {
        fuzz::MutantInstall Install(M);
        S.lift();
        if (M.Scope == fuzz::MutantScope::Both)
          S.check(); // shared-bug scope: checker runs mutated too
      }
      if (S.lift().Outcome != hg::LiftOutcome::Lifted)
        continue; // corrupted lift degraded: acceptable (no silent claim)
      const exporter::CheckResult &C = S.check();
      if (M.Name == "vsa-phantom-target" && C.Proven < C.Theorems)
        ++PhantomKills;
    }
  }
  EXPECT_GE(PhantomKills, 3u)
      << "the VSA mutant must die in Step 2 on resolved-table subjects";
}

TEST(VsaSoak, CampaignZeroViolationsWithVsaOn) {
  if (!soakEnabled())
    GTEST_SKIP() << "set HGLIFT_VSA_SOAK=1 to run";
  // A full mutation campaign with VSA on (the default): zero oracle
  // violations, zero unexplained survivors — including vsa-phantom-target.
  fuzz::FuzzOptions O;
  O.Seed = 7;
  O.Runs = 6;
  O.MutateSemantics = true;
  std::ostringstream Log;
  fuzz::CampaignResult R = fuzz::runCampaign(O, Log);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.oracleViolations(), 0u);
  EXPECT_EQ(R.checkFailures(), 0u);
  bool SawPhantom = false;
  for (const fuzz::MutantOutcome &M : R.Mutants) {
    EXPECT_TRUE(M.Killed) << M.Name << " survived\n" << Log.str();
    if (M.Name == "vsa-phantom-target") {
      SawPhantom = true;
      EXPECT_EQ(M.KilledBy, "step2");
    }
  }
  EXPECT_TRUE(SawPhantom);
  EXPECT_TRUE(R.success());
}

} // namespace
