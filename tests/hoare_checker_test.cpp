//===- hoare_checker_test.cpp - Step 2 checker + Isabelle export ---------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "export/HoareChecker.h"
#include "export/IsabelleExport.h"

#include <gtest/gtest.h>

using namespace hglift;

namespace {

class CorpusCheck : public ::testing::TestWithParam<int> {};

std::optional<corpus::BuiltBinary> corpusBinary(int Which) {
  switch (Which) {
  case 0:
    return corpus::straightlineBinary();
  case 1:
    return corpus::branchLoopBinary();
  case 2:
    return corpus::jumpTableBinary(9);
  case 3:
    return corpus::callChainBinary();
  case 4:
    return corpus::callbackBinary();
  case 5:
    return corpus::ret2winBinary();
  case 6:
    return corpus::weirdEdgeBinary();
  default: {
    corpus::GenOptions G;
    G.Seed = static_cast<uint64_t>(Which) * 0x9e37;
    G.NumFuncs = 4;
    G.TargetInstrs = 45;
    G.JumpTablePct = 30;
    return corpus::randomBinary(G);
  }
  }
}

/// Every edge of every lifted corpus binary proves: the full Step-2
/// validation the paper reports for Table 2 ("Without exception, all
/// Hoare triples could be proven automatically").
TEST_P(CorpusCheck, AllTriplesProve) {
  auto BB = corpusBinary(GetParam());
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  const exporter::CheckResult &C = S.check();
  EXPECT_GT(C.Theorems, 0u);
  EXPECT_EQ(C.Proven, C.Theorems)
      << (C.Failures.empty() ? "" : C.Failures[0]);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusCheck, ::testing::Range(0, 14));

/// Sabotage: weakening a vertex invariant into nonsense must be caught —
/// the checker really does depend on the stored invariants.
TEST(HoareChecker, DetectsTamperedInvariant) {
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  hg::BinaryResult R = S.lift(); // mutable copy: we corrupt it below
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);

  // Find a function with at least two vertices and corrupt one: claim a
  // register holds a bogus constant.
  bool Tampered = false;
  for (hg::FunctionResult &F : R.Functions) {
    for (auto &[K, V] : F.Graph.Vertices) {
      if (!V.Explored || V.Instr.isTerminator())
        continue;
      V.State.P.setReg64(x86::Reg::RBX, F.ctx().mkConst(0x1234567, 64));
      Tampered = true;
      break;
    }
    if (Tampered)
      break;
  }
  ASSERT_TRUE(Tampered);
  // Hand-modified results go through the decoupled checker entry point:
  // it consumes (image, semantics config, result) with no Lifter in sight.
  exporter::CheckContext CC{BB->Img, sem::SymConfig()};
  exporter::CheckResult C = exporter::checkBinary(CC, R);
  EXPECT_LT(C.Proven, C.Theorems)
      << "a corrupted invariant must fail re-verification";
}

TEST(HoareChecker, SkipsRejectedFunctions) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  ASSERT_NE(R.Outcome, hg::LiftOutcome::Lifted);
  const exporter::CheckResult &C = S.check();
  // Rejected functions produce no theorems (there is no HG to validate).
  for (const hg::FunctionResult &F : R.Functions)
    if (F.Outcome != hg::LiftOutcome::Lifted)
      SUCCEED();
  EXPECT_TRUE(C.Failures.empty());
}

// --- Isabelle export ---------------------------------------------------------

TEST(IsabelleExport, WellFormedTheory) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);

  exporter::IsabelleOptions Opts;
  Opts.TheoryName = "call_chain_hg";
  size_t Lemmas = 0;
  std::string Thy = exporter::exportBinary(R, Opts, &Lemmas);

  EXPECT_NE(Thy.find("theory call_chain_hg"), std::string::npos);
  EXPECT_NE(Thy.find("imports"), std::string::npos);
  EXPECT_EQ(Thy.rfind("end\n"), Thy.size() - 4);

  // One lemma per edge.
  size_t TotalEdges = 0;
  for (const hg::FunctionResult &F : R.Functions)
    TotalEdges += F.Graph.edges().size();
  EXPECT_EQ(Lemmas, TotalEdges);
  size_t Count = 0, Pos = 0;
  while ((Pos = Thy.find("\nlemma ", Pos)) != std::string::npos) {
    ++Count;
    ++Pos;
  }
  EXPECT_EQ(Count, TotalEdges);

  // One definition per vertex.
  size_t Defs = 0;
  Pos = 0;
  while ((Pos = Thy.find("\ndefinition ", Pos)) != std::string::npos) {
    ++Defs;
    ++Pos;
  }
  size_t TotalVertices = 0;
  for (const hg::FunctionResult &F : R.Functions)
    TotalVertices += F.Graph.numStates();
  EXPECT_EQ(Defs, TotalVertices);
}

TEST(IsabelleExport, ObligationsAppear) {
  auto BB = corpus::ret2winBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  exporter::IsabelleOptions Opts;
  std::string Thy = exporter::exportBinary(R, Opts);
  EXPECT_NE(Thy.find("MUST PRESERVE"), std::string::npos)
      << "proof obligations are exported with the theory (§5.2)";
}

TEST(IsabelleExport, TermTranslation) {
  expr::ExprContext Ctx;
  const expr::Expr *X = Ctx.mkVar(expr::VarClass::StackBase, "rsp0");
  const expr::Expr *E = Ctx.mkAddK(X, -16);
  std::string T = exporter::isabelleTerm(Ctx, E);
  EXPECT_NE(T.find("rsp0"), std::string::npos);
  const expr::Expr *D = Ctx.mkDeref(E, 8);
  std::string TD = exporter::isabelleTerm(Ctx, D);
  EXPECT_NE(TD.find("mem_read"), std::string::npos);
}

} // namespace
