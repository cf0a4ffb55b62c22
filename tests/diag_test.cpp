//===- diag_test.cpp - Provenance, tracing, explain plumbing -------------===//
//
// The PR-level guarantees of the diagnostics layer:
//
//   * every diagnostic produced by the Lifter and the Step-2 checker
//     carries non-empty provenance (function entry, address, origin);
//   * entailment failures name the failing postcondition clause
//     (Pred::leqExplain / MemModel::leqExplain);
//   * the tracer emits valid JSON Lines even when hammered from many
//     threads, and costs one atomic load when disabled;
//   * the bundled JSON parser round-trips what our writers emit.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "diag/Json.h"
#include "diag/Trace.h"
#include "export/HoareChecker.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

using namespace hglift;

namespace {

// --- provenance on lifter diagnostics ------------------------------------

TEST(DiagProvenance, EveryLifterDiagnosticHasProvenance) {
  // overflowBinary induces a verification error; ret2winBinary induces
  // proof obligations; callbackBinary induces unresolved-call annotations.
  for (auto BB : {corpus::overflowBinary(), corpus::ret2winBinary(),
                  corpus::callbackBinary()}) {
    ASSERT_TRUE(BB.has_value());
    hg::Lifter L(BB->Img, hg::LiftConfig());
    hg::BinaryResult R = L.liftBinary();
    for (const diag::Diagnostic &D : R.allDiagnostics()) {
      EXPECT_FALSE(D.Prov.empty()) << D.Message;
      EXPECT_NE(D.Prov.FunctionEntry, 0u) << D.Message;
      EXPECT_NE(D.Prov.Addr, 0u) << D.Message;
      EXPECT_FALSE(D.Message.empty());
    }
  }
}

TEST(DiagProvenance, VerificationErrorCarriesQueryChain) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  ASSERT_NE(R.Outcome, hg::LiftOutcome::Lifted);

  bool SawError = false;
  for (const diag::Diagnostic &D : R.allDiagnostics())
    if (D.Kind == diag::DiagKind::VerificationError) {
      SawError = true;
      EXPECT_EQ(D.Prov.Origin, diag::Component::SymExec);
      EXPECT_FALSE(D.Prov.Mnemonic.empty());
      // The unprovable return must leave relation queries in the chain —
      // that chain is the root-cause trail `hglift explain` renders.
      EXPECT_FALSE(D.Prov.QueryChain.empty());
    }
  EXPECT_TRUE(SawError);
}

TEST(DiagProvenance, DiagnosticsSortedByAddress) {
  auto BB = corpus::ret2winBinary();
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  for (const hg::FunctionResult &F : R.Functions)
    for (size_t I = 1; I < F.Diags.size(); ++I)
      EXPECT_LE(F.Diags[I - 1].Prov.Addr, F.Diags[I].Prov.Addr);
}

// --- provenance + clause explanation on checker diagnostics ---------------

TEST(DiagProvenance, CheckerFailureNamesFailingClause) {
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  hg::BinaryResult R = S.lift(); // mutable copy: we corrupt it below
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);

  // Corrupt one invariant: claim rbx holds a bogus constant. Post-states
  // reaching that vertex are no longer entailed, and the explanation must
  // point at the rbx clause.
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

  exporter::CheckContext CC{BB->Img, sem::SymConfig()};
  exporter::CheckResult C = exporter::checkBinary(CC, R);
  ASSERT_LT(C.Proven, C.Theorems);
  ASSERT_EQ(C.Diags.size(), C.Failures.size());

  bool SawClause = false;
  for (const diag::Diagnostic &D : C.Diags) {
    EXPECT_EQ(D.Prov.Origin, diag::Component::HoareChecker);
    EXPECT_FALSE(D.Prov.empty()) << D.Message;
    EXPECT_NE(D.Prov.FunctionEntry, 0u);
    if (D.Prov.ClauseId >= 0) {
      SawClause = true;
      EXPECT_FALSE(D.Prov.ClauseText.empty());
      EXPECT_NE(D.Message.find("clause"), std::string::npos) << D.Message;
    }
  }
  EXPECT_TRUE(SawClause)
      << "at least one failure must be explained down to the clause";
}

// --- leqExplain mirrors leq ------------------------------------------------

TEST(LeqExplain, AgreesWithLeqAndNamesRegisterClause) {
  expr::ExprContext Ctx;
  pred::Pred A = pred::Pred::entry(Ctx);
  pred::Pred B = A;
  EXPECT_TRUE(pred::Pred::leq(A, B));
  EXPECT_FALSE(pred::Pred::leqExplain(Ctx, A, B).has_value());

  // B claims rbx == 42; the entry state cannot entail that.
  B.setReg64(x86::Reg::RBX, Ctx.mkConst(42, 64));
  EXPECT_FALSE(pred::Pred::leq(A, B));
  auto F = pred::Pred::leqExplain(Ctx, A, B);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->ClauseId, static_cast<int>(x86::regNum(x86::Reg::RBX)));
  EXPECT_NE(F->Clause.find("rbx"), std::string::npos) << F->Clause;
  EXPECT_FALSE(F->Why.empty());
}

TEST(LeqExplain, NamesRangeClause) {
  expr::ExprContext Ctx;
  pred::Pred A = pred::Pred::entry(Ctx);
  pred::Pred B = A;
  const expr::Expr *Rax = A.reg64(x86::Reg::RAX);
  B.addRange(Rax, pred::RelOp::ULe, 0xc3);
  EXPECT_FALSE(pred::Pred::leq(A, B));
  auto F = pred::Pred::leqExplain(Ctx, A, B);
  ASSERT_TRUE(F.has_value());
  // Range clauses number after the 16 registers and the flag clause.
  EXPECT_GE(F->ClauseId, 17);
  EXPECT_NE(F->Clause.find("195"), std::string::npos) << F->Clause;
}

TEST(LeqExplain, MemModelExplainsMissingClobber) {
  expr::ExprContext Ctx;
  mem::MemModel A, B;
  smt::Region R{Ctx.mkConst(0x1000, 64), 8};
  A.Clobbered.mut().push_back(R);
  EXPECT_FALSE(mem::MemModel::leq(A, B));
  std::string Why = mem::MemModel::leqExplain(Ctx, A, B);
  EXPECT_NE(Why.find("clobber"), std::string::npos) << Why;
  EXPECT_TRUE(mem::MemModel::leqExplain(Ctx, B, A).empty());
}

// --- tracer ---------------------------------------------------------------

TEST(Tracer, DisabledByDefault) {
  EXPECT_EQ(diag::Tracer::active(), nullptr);
}

TEST(Tracer, EmitsValidJsonLines) {
  std::ostringstream OS;
  {
    diag::Tracer T(OS, "unit");
    diag::TracerScope Scope(T);
    ASSERT_EQ(diag::Tracer::active(), &T);
    diag::TraceEvent E("unit_event");
    E.hex("addr", 0x401000);
    E.field("count", uint64_t(7));
    E.field("label", std::string("a \"quoted\" name\n"));
    diag::Tracer::active()->emit(std::move(E));
  }
  EXPECT_EQ(diag::Tracer::active(), nullptr);

  std::istringstream In(OS.str());
  std::string Line;
  size_t Lines = 0;
  bool SawBegin = false, SawEnd = false, SawEvent = false;
  while (std::getline(In, Line)) {
    ++Lines;
    auto V = diag::parseJson(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    std::string Ev = V->str("ev");
    SawBegin |= Ev == "trace_begin";
    SawEnd |= Ev == "trace_end";
    if (Ev == "unit_event") {
      SawEvent = true;
      EXPECT_EQ(V->str("addr"), "0x401000");
      EXPECT_EQ(V->num("count"), 7);
      EXPECT_EQ(V->str("label"), "a \"quoted\" name\n");
    }
  }
  EXPECT_EQ(Lines, 3u);
  EXPECT_TRUE(SawBegin && SawEnd && SawEvent);
}

TEST(Tracer, ThreadSafeWholeLines) {
  std::ostringstream OS;
  {
    diag::Tracer T(OS, "hammer");
    diag::TracerScope Scope(T);
    std::vector<std::thread> Workers;
    for (int W = 0; W < 4; ++W)
      Workers.emplace_back([W] {
        for (int I = 0; I < 250; ++I) {
          diag::TraceEvent E("hammer");
          E.field("worker", static_cast<uint64_t>(W));
          E.field("i", static_cast<uint64_t>(I));
          if (diag::Tracer *T = diag::Tracer::active())
            T->emit(std::move(E));
        }
      });
    for (std::thread &W : Workers)
      W.join();
  }

  std::istringstream In(OS.str());
  std::string Line;
  size_t Hammered = 0;
  while (std::getline(In, Line)) {
    auto V = diag::parseJson(Line);
    ASSERT_TRUE(V.has_value()) << "interleaved write produced: " << Line;
    if (V->str("ev") == "hammer")
      ++Hammered;
  }
  EXPECT_EQ(Hammered, 1000u);
}

TEST(Tracer, TracedParallelLiftProducesValidJsonl) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::ostringstream OS;
  {
    diag::Tracer T(OS, "parallel");
    diag::TracerScope Scope(T);
    Options O;
    O.Lift.Threads = 4;
    Session S(BB->Img, O);
    S.lift();
    S.check();
  }

  std::istringstream In(OS.str());
  std::string Line;
  size_t LiftEnds = 0, CheckEnds = 0;
  while (std::getline(In, Line)) {
    auto V = diag::parseJson(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    LiftEnds += V->str("ev") == "lift_end";
    CheckEnds += V->str("ev") == "check_end";
  }
  EXPECT_GE(LiftEnds, 2u) << "one lift span per function";
  EXPECT_GE(CheckEnds, 2u) << "one check span per function";
}

// --- JSON parser ----------------------------------------------------------

TEST(Json, RoundTripsWriterOutput) {
  std::string Doc = R"({"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true},
                        "e": null, "f": "A\"\\"})";
  auto V = diag::parseJson(Doc);
  ASSERT_TRUE(V.has_value());
  const diag::JValue *A = V->get("a");
  ASSERT_TRUE(A && A->isArr());
  ASSERT_EQ(A->Arr.size(), 3u);
  EXPECT_EQ(A->Arr[1].Num, 2.5);
  EXPECT_EQ(A->Arr[2].Num, -3);
  const diag::JValue *B = V->get("b");
  ASSERT_TRUE(B && B->isObj());
  EXPECT_EQ(B->str("c"), "x\ny");
  EXPECT_TRUE(B->get("d")->B);
  EXPECT_EQ(V->get("e")->K, diag::JValue::Kind::Null);
  EXPECT_EQ(V->str("f"), "A\"\\");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(diag::parseJson("{\"a\": ").has_value());
  EXPECT_FALSE(diag::parseJson("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(diag::parseJson("").has_value());
  EXPECT_FALSE(diag::parseJson("{'a': 1}").has_value());
}

} // namespace
