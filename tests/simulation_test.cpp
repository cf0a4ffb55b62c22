//===- simulation_test.cpp - Simulation soundness (Theorem 4.7) ----------===//
//
// Theorem 4.7: every reachable concrete transition s →B s' is covered by a
// Hoare-Graph edge. We test the control-flow projection of that statement:
// run corpus binaries concretely on many random inputs and check every
// executed (address, next-address) pair against the extracted graph —
// either an edge to the next address exists, or the transition is a call
// into a separately lifted function / a return covered by a Ret edge, or
// the source vertex carries an unsoundness annotation (which is exactly
// the disclaimer the paper's algorithm emits).
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "semantics/Machine.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace hglift;
using sem::CtrlKind;
using sem::Machine;

namespace {

struct CoverageChecker {
  const hg::BinaryResult &R;
  const elf::BinaryImage &Img;

  bool vertexAt(uint64_t Addr) const {
    for (const hg::FunctionResult &F : R.Functions)
      for (const auto &[K, V] : F.Graph.Vertices)
        if (K.Rip == Addr && V.Explored)
          return true;
    return false;
  }

  bool edge(uint64_t From, uint64_t To) const {
    for (const hg::FunctionResult &F : R.Functions)
      for (const hg::Edge &E : F.Graph.edges())
        if (E.From.Rip == From && E.To.Rip == To)
          return true;
    return false;
  }

  bool annotatedAt(uint64_t From) const {
    for (const hg::FunctionResult &F : R.Functions)
      for (const hg::Edge &E : F.Graph.edges())
        if (E.From.Rip == From &&
            (E.Kind == CtrlKind::UnresJump || E.Kind == CtrlKind::UnresCall))
          return true;
    return false;
  }

  bool retEdgeAt(uint64_t From) const {
    for (const hg::FunctionResult &F : R.Functions)
      for (const hg::Edge &E : F.Graph.edges())
        if (E.From.Rip == From && E.To.Rip == hg::RetTargetRip)
          return true;
    return false;
  }

  /// Check one concrete transition.
  bool covers(uint64_t From, uint64_t To) const {
    if (edge(From, To))
      return true;
    size_t Avail;
    const uint8_t *Bytes = Img.bytesAt(From, Avail);
    if (!Bytes)
      return false;
    x86::Instr I = x86::decodeInstr(Bytes, Avail, From);
    if (!I.isValid())
      return false;
    // Calls: concrete control enters the callee, which is lifted as its
    // own unit (context-free, §4.2); external stubs return to the edge's
    // target which `edge` already covered.
    if (I.isCall() && vertexAt(To))
      return true;
    // External call whose stub returned: the concrete successor is the
    // return site, covered by the CallExternal edge (handled above) — or
    // the callee was annotated.
    if (annotatedAt(From))
      return true;
    // Returns / jumps back to a caller: covered by a Ret edge; the return
    // site exists in the calling function.
    if ((I.isRet() || I.isJump()) && retEdgeAt(From))
      return true;
    return false;
  }
};

void checkBinary(const corpus::BuiltBinary &BB, unsigned Runs,
                 uint64_t Seed) {
  hg::LiftConfig Cfg;
  hg::Lifter L(BB.Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;

  CoverageChecker CC{R, BB.Img};
  Rng Rand(Seed);
  for (unsigned Run = 0; Run < Runs; ++Run) {
    Machine M(BB.Img, Rand.next());
    M.setupCall(BB.Img.Entry);
    for (unsigned I = 0; I < 6; ++I)
      M.setReg(x86::argReg(I),
               Rand.chance(1, 2) ? Rand.below(256) : Rand.next());
    Machine::Status St = M.run(20000);
    EXPECT_TRUE(St == Machine::Status::Halted ||
                St == Machine::Status::Returned)
        << BB.Name << " run " << Run << " status "
        << static_cast<int>(St) << " rip " << hexStr(M.Rip);

    const auto &Trace = M.trace();
    for (size_t I = 0; I + 1 < Trace.size(); ++I) {
      EXPECT_TRUE(CC.vertexAt(Trace[I]))
          << BB.Name << ": executed " << hexStr(Trace[I])
          << " has no vertex";
      EXPECT_TRUE(CC.covers(Trace[I], Trace[I + 1]))
          << BB.Name << ": transition " << hexStr(Trace[I]) << " -> "
          << hexStr(Trace[I + 1]) << " not covered";
    }
  }
}

TEST(Simulation, Straightline) {
  auto BB = corpus::straightlineBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 20, 1);
}

TEST(Simulation, BranchLoop) {
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 30, 2);
}

TEST(Simulation, JumpTable) {
  auto BB = corpus::jumpTableBinary(10);
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 40, 3);
}

TEST(Simulation, CallChain) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 20, 4);
}

TEST(Simulation, WeirdEdgeBothWorlds) {
  // Both the aliasing (ROP) and non-aliasing executions must be covered —
  // the defining property of overapproximative lifting (§2).
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  CoverageChecker CC{R, BB->Img};

  // Find f via _start's call.
  Machine Probe(BB->Img);
  Probe.setupCall(BB->Img.Entry);
  uint64_t F = 0;
  for (int I = 0; I < 10 && F == 0; ++I) {
    size_t Avail;
    const uint8_t *Bytes = BB->Img.bytesAt(Probe.Rip, Avail);
    x86::Instr In = x86::decodeInstr(Bytes, Avail, Probe.Rip);
    bool WasCall = In.isCall();
    ASSERT_EQ(Probe.step(), Machine::Status::Running);
    if (WasCall)
      F = Probe.Rip;
  }

  Rng Rand(5);
  for (int Run = 0; Run < 60; ++Run) {
    Machine M(BB->Img);
    M.setupCall(F);
    M.setReg(x86::Reg::RDI, Rand.below(0x140)); // straddles the 0xc3 bound
    uint64_t P1 = 0x700000, P2 = Rand.chance(1, 2) ? P1 : 0x700100;
    M.setReg(x86::Reg::RSI, P1);
    M.setReg(x86::Reg::RDX, P2);
    ASSERT_EQ(M.run(1000), Machine::Status::Returned);
    const auto &Trace = M.trace();
    for (size_t I = 0; I + 1 < Trace.size(); ++I)
      EXPECT_TRUE(CC.covers(Trace[I], Trace[I + 1]))
          << "aliasing=" << (P1 == P2) << " rdi=" << M.reg(x86::Reg::RDI)
          << ": " << hexStr(Trace[I]) << " -> " << hexStr(Trace[I + 1]);
  }
}

TEST(Simulation, RandomBinaries) {
  Rng Seeds(0x51a);
  for (int B = 0; B < 6; ++B) {
    corpus::GenOptions G;
    G.Seed = Seeds.next();
    G.NumFuncs = 3;
    G.TargetInstrs = 50;
    G.JumpTablePct = 40;
    G.Name = "sim_rand_" + std::to_string(B);
    auto BB = corpus::randomBinary(G);
    ASSERT_TRUE(BB.has_value());
    checkBinary(*BB, 10, Seeds.next());
  }
}

TEST(Simulation, Ret2winHonestMemset) {
  // With a well-behaved memset (the obligation holds) every run is
  // covered; exploit_hunt.cpp demonstrates the violated-obligation case.
  auto BB = corpus::ret2winBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 10, 7);
}


TEST(Simulation, OverlappingInstructions) {
  auto BB = corpus::overlappingBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 20, 11);
}

TEST(Simulation, Recursion) {
  auto BB = corpus::recursionBinary();
  ASSERT_TRUE(BB.has_value());
  checkBinary(*BB, 15, 12);
}

} // namespace
