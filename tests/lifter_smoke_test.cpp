//===- lifter_smoke_test.cpp - End-to-end pipeline smoke tests -----------===//
//
// Early sanity: corpus binaries build, parse, lift, and produce the
// expected outcomes. Detailed per-module behaviour is covered elsewhere.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "semantics/Machine.h"

#include <gtest/gtest.h>

using namespace hglift;

namespace {

hg::BinaryResult liftIt(const corpus::BuiltBinary &BB) {
  hg::LiftConfig Cfg;
  hg::Lifter L(BB.Img, Cfg);
  return L.liftBinary();
}

TEST(LifterSmoke, Straightline) {
  auto BB = corpus::straightlineBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GT(R.totalInstructions(), 5u);
}

TEST(LifterSmoke, BranchLoop) {
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
}

TEST(LifterSmoke, JumpTable) {
  auto BB = corpus::jumpTableBinary(8);
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalA(), 1u) << "the jump-table site should be resolved";
  EXPECT_EQ(R.totalB(), 0u);
  // One edge per distinct read table value (§2): the indirect jmp vertex
  // must have all 8 case targets.
  size_t CaseEdges = 0;
  for (const hg::FunctionResult &F : R.Functions)
    for (const hg::Edge &E : F.Graph.edges())
      if (E.Instr.isJump() && !E.Instr.Ops[0].isImm() &&
          E.To.Rip != hg::UnresolvedTargetRip)
        ++CaseEdges;
  EXPECT_GE(CaseEdges, 8u);
}

TEST(LifterSmoke, CallChain) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.Functions.size(), 4u); // _start, f, g, h
}

TEST(LifterSmoke, WeirdEdgeFound) {
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  bool AnyWeird = false;
  for (const hg::FunctionResult &F : R.Functions)
    AnyWeird |= !F.Graph.weirdEdges().empty();
  EXPECT_TRUE(AnyWeird) << "the §2 ROP edge must appear in the HG";
}

TEST(LifterSmoke, WeirdEdgeConcreteAliasRun) {
  // The emulator proves the weird path is real: with rsi == rdx the hidden
  // ret executes.
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  uint64_t F = 0;
  // _start sets up arguments and calls f; step until the call executes,
  // after which rip is f's entry.
  sem::Machine Probe(BB->Img);
  Probe.setupCall(BB->Img.Entry);
  for (int I = 0; I < 10 && F == 0; ++I) {
    size_t Avail;
    const uint8_t *Bytes = BB->Img.bytesAt(Probe.Rip, Avail);
    ASSERT_NE(Bytes, nullptr);
    x86::Instr In = x86::decodeInstr(Bytes, Avail, Probe.Rip);
    bool WasCall = In.isCall();
    ASSERT_EQ(Probe.step(), sem::Machine::Status::Running);
    if (WasCall)
      F = Probe.Rip;
  }
  ASSERT_NE(F, 0u);

  sem::Machine M(BB->Img);
  M.setupCall(F);
  M.setReg(x86::Reg::RDI, 3);        // index <= 0xc3
  M.setReg(x86::Reg::RSI, 0x700000); // aliasing pointers
  M.setReg(x86::Reg::RDX, 0x700000);
  auto St = M.run(1000);
  EXPECT_EQ(St, sem::Machine::Status::Returned);
  // The trace must contain the mid-instruction ret byte address (f + 2).
  bool SawRop = false;
  for (uint64_t A : M.trace())
    SawRop |= (A == F + 2);
  EXPECT_TRUE(SawRop) << "aliasing run must execute the hidden ret";
}

TEST(LifterSmoke, OverflowRejected) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
}

TEST(LifterSmoke, StackProbeRejected) {
  auto BB = corpus::stackProbeBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
}

TEST(LifterSmoke, NonstandardRspRejected) {
  auto BB = corpus::nonstandardRspBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
}

TEST(LifterSmoke, ConcurrencyOutOfScope) {
  auto BB = corpus::concurrencyBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Concurrency);
}

TEST(LifterSmoke, Ret2winObligation) {
  auto BB = corpus::ret2winBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  bool Found = false;
  for (const std::string &O : R.allObligations())
    Found |= O.find("memset") != std::string::npos &&
             O.find("MUST PRESERVE") != std::string::npos;
  EXPECT_TRUE(Found) << "the memset MUST PRESERVE obligation must appear";
}

TEST(LifterSmoke, CallbackAnnotated) {
  auto BB = corpus::callbackBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_GE(R.totalC(), 1u) << "mutable-global callback: unresolved call";
  EXPECT_GE(R.totalA(), 1u) << "rodata callback: resolved indirection";
}

TEST(LifterSmoke, RandomBinariesLift) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    corpus::GenOptions Opts;
    Opts.Seed = Seed;
    Opts.NumFuncs = 3;
    Opts.TargetInstrs = 40;
    auto BB = corpus::randomBinary(Opts);
    ASSERT_TRUE(BB.has_value()) << "seed " << Seed;
    hg::BinaryResult R = liftIt(*BB);
    EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted)
        << "seed " << Seed << ": " << R.FailReason;
  }
}

TEST(LifterSmoke, ExplodingTimesOut) {
  auto BB = corpus::explodingBinary(14);
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 2000;
  Cfg.MaxSeconds = 10.0;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Timeout);
}


TEST(LifterSmoke, OverlappingInstructions) {
  // A direct jump into the middle of a movabs: both decodings must appear
  // in the HG and the edge is flagged weird; the emulator executes both.
  auto BB = corpus::overlappingBinary();
  ASSERT_TRUE(BB.has_value());
  hg::BinaryResult R = liftIt(*BB);
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  bool AnyWeird = false;
  for (const hg::FunctionResult &F : R.Functions)
    AnyWeird |= !F.Graph.weirdEdges().empty();
  EXPECT_TRUE(AnyWeird);

  // Concrete: find f (call target), run both paths.
  sem::Machine Probe(BB->Img);
  Probe.setupCall(BB->Img.Entry);
  uint64_t F = 0;
  for (int I = 0; I < 10 && F == 0; ++I) {
    size_t Avail;
    const uint8_t *Bytes = BB->Img.bytesAt(Probe.Rip, Avail);
    x86::Instr In = x86::decodeInstr(Bytes, Avail, Probe.Rip);
    bool WasCall = In.isCall();
    ASSERT_EQ(Probe.step(), sem::Machine::Status::Running);
    if (WasCall)
      F = Probe.Rip;
  }
  for (uint64_t Rdi : {uint64_t(0), uint64_t(7)}) {
    sem::Machine M(BB->Img);
    M.setupCall(F);
    M.setReg(x86::Reg::RDI, Rdi);
    ASSERT_EQ(M.run(100), sem::Machine::Status::Returned);
    EXPECT_EQ(M.Regs[0] & 0xffffffff, Rdi ? 1u : 0u);
  }
}

} // namespace
