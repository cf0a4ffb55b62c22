//===- parallel_lifter_test.cpp - Determinism of the parallel engine -----===//
//
// The acceptance bar for the work-queue lifting engine: lifting with N
// worker threads is observably identical to lifting with 1. Per-function
// isolation (one LiftArena per lift) makes each FunctionResult a pure
// function of (image, config, entry); the engine merges results sorted by
// entry address. We fingerprint everything observable — outcomes, graph
// shapes, vertex keys, invariant strings, annotation counts, callees,
// obligations, deterministic stats — and require bit-identical strings.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "diag/Diag.h"
#include "driver/Report.h"
#include "export/HoareChecker.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace hglift;
using corpus::BuiltBinary;

namespace {

/// Serialize every schedule-independent observable of a lift result.
/// Wall-clock fields (Seconds, Stats.Seconds) are the only exclusions.
std::string fingerprint(const hg::BinaryResult &R) {
  std::string S;
  S += "binary " + R.Name + " outcome " +
       std::string(hg::liftOutcomeName(R.Outcome)) + " fail '" +
       R.FailReason + "'\n";
  S += "totals A " + std::to_string(R.totalA()) + " B " +
       std::to_string(R.totalB()) + " C " + std::to_string(R.totalC()) +
       " instrs " + std::to_string(R.totalInstructions()) + " states " +
       std::to_string(R.totalStates()) + "\n";
  S += "stats v " + std::to_string(R.Total.Vertices) + " j " +
       std::to_string(R.Total.Joins) + " w " +
       std::to_string(R.Total.Widenings) + " s " +
       std::to_string(R.Total.Steps) + " f " +
       std::to_string(R.Total.Forks) + " q " +
       std::to_string(R.Total.SolverQueries) + "\n";
  for (const std::string &O : R.allObligations())
    S += "obl " + O + "\n";
  // Structured diagnostics are schedule-independent except for the worker
  // ordinal (trace-only by design; excluded from --report-json too).
  for (const diag::Diagnostic &D : R.allDiagnostics())
    S += "diag " + std::string(diag::diagKindName(D.Kind)) + " " +
         std::string(diag::componentName(D.Prov.Origin)) + " " +
         hexStr(D.Prov.FunctionEntry) + " " + hexStr(D.Prov.Addr) + " '" +
         D.Prov.Mnemonic + "' #" + std::to_string(D.Prov.ClauseId) + " '" +
         D.Prov.ClauseText + "' q" +
         std::to_string(D.Prov.QueryChain.size()) + " " + D.Message + "\n";
  for (const hg::FunctionResult &F : R.Functions) {
    S += "fn " + hexStr(F.Entry) + " " + hg::liftOutcomeName(F.Outcome) +
         " '" + F.FailReason + "' ret " + std::to_string(F.MayReturn) +
         " A " + std::to_string(F.ResolvedIndirections) + " B " +
         std::to_string(F.UnresolvedJumps) + " C " +
         std::to_string(F.UnresolvedCalls) + "\n";
    for (uint64_t C : F.Callees)
      S += "  callee " + hexStr(C) + "\n";
    S += "  initial " + hexStr(F.Graph.Initial.Rip) + "/" +
         hexStr(F.Graph.Initial.CtrlHash) + "\n";
    for (const auto &[Key, V] : F.Graph.Vertices) {
      S += "  v " + hexStr(Key.Rip) + "/" + hexStr(Key.CtrlHash) +
           " joins " + std::to_string(V.JoinCount) + " " +
           (V.Instr.isValid() ? V.Instr.str() : "?") + "\n";
      S += "    P " + V.State.P.str(F.ctx()) + "\n";
      S += "    M " + V.State.M.str(F.ctx()) + "\n";
    }
    for (const hg::Edge &E : F.Graph.edges())
      S += "  e " + hexStr(E.From.Rip) + "/" + hexStr(E.From.CtrlHash) +
           " -> " + hexStr(E.To.Rip) + "/" + hexStr(E.To.CtrlHash) + " " +
           std::to_string(static_cast<int>(E.Kind)) + "\n";
  }
  return S;
}

hg::BinaryResult lift(const BuiltBinary &BB, unsigned Threads, bool Library) {
  hg::LiftConfig Cfg;
  Cfg.Threads = Threads;
  hg::Lifter L(BB.Img, Cfg);
  return Library ? L.liftLibrary() : L.liftBinary();
}

/// The whole handcrafted corpus, including rejection/timeout outcomes —
/// failure paths must be deterministic too.
std::vector<std::pair<std::string, std::optional<BuiltBinary>>> corpusSet() {
  std::vector<std::pair<std::string, std::optional<BuiltBinary>>> Out;
  Out.emplace_back("straightline", corpus::straightlineBinary());
  Out.emplace_back("branch_loop", corpus::branchLoopBinary());
  Out.emplace_back("call_chain", corpus::callChainBinary());
  Out.emplace_back("jump_table", corpus::jumpTableBinary());
  Out.emplace_back("callback", corpus::callbackBinary());
  Out.emplace_back("recursion", corpus::recursionBinary());
  Out.emplace_back("weird_edge", corpus::weirdEdgeBinary());
  Out.emplace_back("ret2win", corpus::ret2winBinary());
  Out.emplace_back("overflow", corpus::overflowBinary());
  Out.emplace_back("stack_probe", corpus::stackProbeBinary());
  return Out;
}

TEST(ParallelLifter, CorpusIdenticalAcrossThreadCounts) {
  for (auto &[Name, BB] : corpusSet()) {
    ASSERT_TRUE(BB.has_value()) << Name;
    std::string Serial = fingerprint(lift(*BB, 1, false));
    for (unsigned Threads : {2u, 4u, 8u}) {
      std::string Par = fingerprint(lift(*BB, Threads, false));
      EXPECT_EQ(Serial, Par)
          << Name << ": threads=" << Threads << " diverged from serial";
    }
  }
}

TEST(ParallelLifter, LibraryIdenticalAcrossThreadCounts) {
  // A multi-function library is where the queue actually fans out: many
  // roots at once plus dynamically discovered callees.
  corpus::GenOptions G;
  G.Seed = 0x9a11e1;
  G.NumFuncs = 8;
  G.TargetInstrs = 40;
  G.CallbackPct = 25;
  G.UnresJumpPct = 25;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  std::string Serial = fingerprint(lift(*BB, 1, true));
  for (unsigned Threads : {2u, 4u, 8u}) {
    std::string Par = fingerprint(lift(*BB, Threads, true));
    EXPECT_EQ(Serial, Par) << "threads=" << Threads;
  }
  // Threads=0 (hardware concurrency) is just another thread count.
  EXPECT_EQ(Serial, fingerprint(lift(*BB, 0, true)));
}

TEST(ParallelLifter, RepeatedRunsIdentical) {
  // Determinism also means run-to-run stability at a fixed thread count
  // (vertex keys are structural hashes, never pointer-derived).
  corpus::GenOptions G;
  G.Seed = 0x5eed;
  G.NumFuncs = 5;
  G.TargetInstrs = 30;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  std::string First = fingerprint(lift(*BB, 4, true));
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(First, fingerprint(lift(*BB, 4, true))) << "run " << I;
}

TEST(ParallelLifter, DiagnosticOrderDeterministic) {
  // The (function-entry, address) diagnostic order is part of the report
  // contract: every function's Diags are sorted by (address, kind,
  // message), and allDiagnostics() concatenates in entry order — at every
  // thread count.
  for (auto &[Name, BB] : corpusSet()) {
    ASSERT_TRUE(BB.has_value()) << Name;
    for (unsigned Threads : {1u, 4u}) {
      hg::BinaryResult R = lift(*BB, Threads, false);
      for (const hg::FunctionResult &F : R.Functions)
        for (size_t I = 1; I < F.Diags.size(); ++I) {
          const diag::Diagnostic &A = F.Diags[I - 1], &B = F.Diags[I];
          EXPECT_TRUE(A.Prov.Addr < B.Prov.Addr ||
                      (A.Prov.Addr == B.Prov.Addr &&
                       (A.Kind < B.Kind ||
                        (A.Kind == B.Kind && A.Message <= B.Message))))
              << Name << " threads=" << Threads << ": diagnostics out of "
              << "(address, kind, message) order at index " << I;
        }
      uint64_t PrevEntry = 0;
      for (const diag::Diagnostic &D : R.allDiagnostics()) {
        EXPECT_GE(D.Prov.FunctionEntry, PrevEntry);
        PrevEntry = D.Prov.FunctionEntry;
      }
    }
  }
}

TEST(ParallelLifter, ReportJsonByteIdenticalAcrossThreadCounts) {
  // The machine-readable report is the deterministic artifact: the exact
  // bytes of writeReportJson (including the Step-2 check section) must not
  // depend on the thread count.
  for (auto &[Name, BB] : corpusSet()) {
    ASSERT_TRUE(BB.has_value()) << Name;
    auto Render = [&](unsigned Threads) {
      Options O;
      O.Lift.Threads = Threads;
      Session S(BB->Img, O);
      S.lift();
      S.check();
      std::ostringstream OS;
      S.writeReportJson(OS);
      return OS.str();
    };
    std::string Serial = Render(1);
    for (unsigned Threads : {2u, 4u})
      EXPECT_EQ(Serial, Render(Threads))
          << Name << ": report bytes diverged at threads=" << Threads;
  }
}

TEST(ParallelLifter, DiscoveredCalleesLiftedExactlyOnce) {
  // The mutex-guarded seen-set must dedupe concurrent discoveries of the
  // same callee: every entry appears exactly once in the merged results,
  // sorted by entry address.
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = lift(*BB, 8, false);
  std::set<uint64_t> Entries;
  uint64_t Prev = 0;
  for (const hg::FunctionResult &F : R.Functions) {
    EXPECT_TRUE(Entries.insert(F.Entry).second)
        << "duplicate function " << hexStr(F.Entry);
    EXPECT_GT(F.Entry, Prev) << "results not sorted by entry";
    Prev = F.Entry;
  }
  for (const hg::FunctionResult &F : R.Functions)
    for (uint64_t C : F.Callees)
      EXPECT_TRUE(Entries.count(C)) << "callee " << hexStr(C) << " missing";
}

TEST(ParallelLifter, StatsAggregateExactly) {
  // BinaryResult::Total is the exact merge of the per-function stats, at
  // every thread count.
  corpus::GenOptions G;
  G.Seed = 0x57a7;
  G.NumFuncs = 4;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  for (unsigned Threads : {1u, 4u}) {
    hg::BinaryResult R = lift(*BB, Threads, true);
    LiftStats Sum;
    for (const hg::FunctionResult &F : R.Functions)
      Sum.merge(F.Stats);
    EXPECT_EQ(Sum.Vertices, R.Total.Vertices);
    EXPECT_EQ(Sum.Joins, R.Total.Joins);
    EXPECT_EQ(Sum.Widenings, R.Total.Widenings);
    EXPECT_EQ(Sum.Steps, R.Total.Steps);
    EXPECT_EQ(Sum.Forks, R.Total.Forks);
    EXPECT_EQ(Sum.SolverQueries, R.Total.SolverQueries);
    EXPECT_EQ(Sum.Z3Queries, R.Total.Z3Queries);
    EXPECT_GT(R.Total.Vertices, 0u);
    EXPECT_GT(R.Total.Steps, 0u);
    for (const hg::FunctionResult &F : R.Functions) {
      EXPECT_EQ(F.Stats.Vertices, F.Graph.Vertices.size());
      EXPECT_GE(F.Stats.Steps, F.Stats.Vertices)
          << "every vertex exploration is at least one step";
    }
  }
}

} // namespace
