//===- lifter_test.cpp - Algorithm 1 behaviours beyond the smoke tests ---===//

#include "corpus/ProgramBuilder.h"
#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "semantics/Machine.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <unistd.h>

using namespace hglift;
using namespace hglift::x86;
using corpus::ProgramBuilder;

namespace hglift::hg {
// Failure messages show an edge as "from -> to".
void PrintTo(const Edge &E, std::ostream *OS) {
  *OS << hexStr(E.From.Rip) << " -> " << hexStr(E.To.Rip);
}
} // namespace hglift::hg

namespace {

TEST(Lifter, LibraryModeLiftsExportedFunctions) {
  corpus::GenOptions G;
  G.Seed = 0x11b;
  G.NumFuncs = 5;
  G.TargetInstrs = 30;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  ASSERT_EQ(BB->Img.Functions.size(), 5u);
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftLibrary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  // Every exported symbol lifted as its own root.
  for (const elf::Symbol &S : BB->Img.Functions) {
    bool Found = false;
    for (const hg::FunctionResult &F : R.Functions)
      Found |= F.Entry == S.Addr;
    EXPECT_TRUE(Found) << S.Name;
  }
}

TEST(Lifter, EachFunctionExploredOnce) {
  // f calls g three times; g appears exactly once in the results
  // (context-free treatment, §4.2: "each function is explored only once").
  ProgramBuilder PB("multi_call");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), G = A.newLabel();
  A.bind(F);
  A.subRI(Reg::RSP, 8, 8);
  A.callL(G);
  A.callL(G);
  A.callL(G);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(G);
  A.leaRM(Reg::RAX, MemOperand{Reg::RDI, Reg::RDI, 1, 0, false}, 8);
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  unsigned GCount = 0;
  for (const hg::FunctionResult &FR : R.Functions)
    GCount += FR.Entry == A.labelAddr(G);
  EXPECT_EQ(GCount, 1u);
}

TEST(Lifter, ReturnSymbolSemantics) {
  // The callee starts with S_callee on the stack, not a concrete return
  // address (§4.2.2).
  ProgramBuilder PB("retsym");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), G = A.newLabel();
  A.bind(F);
  A.subRI(Reg::RSP, 8, 8);
  A.callL(G);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(G);
  A.nop();
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  for (const hg::FunctionResult &FR : R.Functions) {
    ASSERT_NE(FR.RetSym, nullptr);
    const expr::VarInfo &VI = FR.ctx().varInfo(FR.RetSym->varId());
    EXPECT_EQ(VI.Cls, expr::VarClass::RetSym);
    EXPECT_EQ(VI.Aux, FR.Entry) << "symbol is keyed by the entry address";
    EXPECT_TRUE(FR.MayReturn);
  }
}

TEST(Lifter, NonReturningCalleePrunesReturnSite) {
  // f calls g; g calls exit. The code after the call to g is unreachable
  // (§4.2.2 reachability) and g must be known not to return.
  ProgramBuilder PB("noreturn");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), G = A.newLabel();
  uint64_t Exit = PB.plt("exit");
  A.bind(F);
  A.subRI(Reg::RSP, 8, 8);
  A.callL(G);
  // Return site: would fail verification if explored as reachable code
  // that returns with a broken stack — keep it innocuous but marked.
  A.movRI(Reg::RAX, 0x42, 4);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(G);
  A.xorRR(Reg::RDI, Reg::RDI, 4);
  A.callAbs(Exit);
  // No ret: exit does not return.
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  const hg::FunctionResult *GFn = nullptr, *FFn = nullptr;
  for (const hg::FunctionResult &FR : R.Functions) {
    if (FR.Entry == A.labelAddr(G))
      GFn = &FR;
    if (FR.Entry == A.labelAddr(F))
      FFn = &FR;
  }
  ASSERT_NE(GFn, nullptr);
  ASSERT_NE(FFn, nullptr);
  EXPECT_FALSE(GFn->MayReturn);
  EXPECT_FALSE(FFn->MayReturn)
      << "f's only path to ret goes through the non-returning call";
}

TEST(Lifter, CallingConventionViolationRejected) {
  // A function that clobbers rbx without restoring it violates the System
  // V calling convention: lifting must reject it.
  ProgramBuilder PB("clobber_rbx");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel();
  A.bind(F);
  A.movRI(Reg::RBX, 1, 8);
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
  EXPECT_NE(R.FailReason.find("calling convention"), std::string::npos)
      << R.FailReason;
}

TEST(Lifter, RetWithImmediatePops) {
  // ret 0x10 (callee-pops) restores rsp0 + 8 + 0x10: still verifiable.
  ProgramBuilder PB("ret_imm");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel();
  A.bind(F);
  A.nop();
  A.byte(0xc2); // ret 0x10
  A.byte(0x10);
  A.byte(0x00);
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
}

TEST(Lifter, JumpToNowhereRejected) {
  // A direct jump outside every executable segment is a verification
  // error, not a crash.
  ProgramBuilder PB("wild_jump");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel();
  A.bind(F);
  A.byte(0xe9); // jmp rel32 to an unmapped address
  A.u32(0x00800000);
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
}

TEST(Lifter, UndecodableRejected) {
  ProgramBuilder PB("garbage");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel();
  A.bind(F);
  A.byte(0x62); // EVEX prefix: unsupported
  A.byte(0xff);
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::UnprovableReturn);
  EXPECT_NE(R.FailReason.find("undecodable"), std::string::npos);
}

TEST(Lifter, WideningTerminatesSymbolicLoops) {
  // A loop whose trip count is symbolic (bounded by rdi) must still reach
  // a fixpoint through join widening.
  ProgramBuilder PB("symloop");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), Loop = A.newLabel(), Done = A.newLabel();
  A.bind(F);
  A.xorRR(Reg::RAX, Reg::RAX, 8);
  A.movRR(Reg::RCX, Reg::RDI, 8);
  A.bind(Loop);
  A.cmpRI(Reg::RCX, 0, 8);
  A.jccL(Cond::E, Done);
  A.addRI(Reg::RAX, 2, 8);
  A.decR(Reg::RCX, 8);
  A.jmpL(Loop);
  A.bind(Done);
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 500; // tight: must converge, not burn fuel
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_LT(R.totalStates(), 60u) << "joining must collapse the loop states";
}

TEST(Lifter, TimeoutRetainsPartialGraph) {
  // Exhausting the vertex fuel must flag Timeout but keep everything built
  // so far: the partial Hoare Graph, its stats, and the annotation counts —
  // a truncated graph is still a sound prefix of the exploration.
  ProgramBuilder PB("fuel");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel();
  A.bind(F);
  for (int I = 0; I < 8; ++I)
    A.nop();
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 3; // far fewer than the 9 instructions
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Timeout);
  ASSERT_EQ(R.Functions.size(), 1u);
  const hg::FunctionResult &FR = R.Functions[0];
  EXPECT_EQ(FR.Outcome, hg::LiftOutcome::Timeout);
  EXPECT_NE(FR.FailReason.find("partial graph retained"), std::string::npos)
      << FR.FailReason;
  // The partial graph is retained, not dropped.
  EXPECT_GE(FR.Graph.Vertices.size(), Cfg.MaxVertices);
  EXPECT_FALSE(FR.Graph.edges().empty());
  EXPECT_EQ(FR.Stats.Vertices, FR.Graph.Vertices.size());
  EXPECT_GT(FR.Stats.Steps, 0u);
  // Wall-clock timeouts keep the partial graph too.
  hg::LiftConfig CfgT;
  CfgT.MaxSeconds = 1e-9;
  hg::BinaryResult RT = hg::Lifter(BB->Img, CfgT).liftBinary();
  ASSERT_EQ(RT.Outcome, hg::LiftOutcome::Timeout);
  EXPECT_FALSE(RT.Functions[0].Graph.Vertices.empty());
}

TEST(Lifter, ObligationsDeduplicated) {
  auto BB = corpus::ret2winBinary();
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  auto Obls = R.allObligations();
  std::set<std::string> Uniq(Obls.begin(), Obls.end());
  EXPECT_EQ(Obls.size(), Uniq.size());
}

TEST(Lifter, TailCallViaJmpIsReturnEdge) {
  // g ends with `jmp rax` where rax holds the caller's return address
  // pattern is exotic; the common tail call `pop rbp; jmp f` where f is a
  // direct target is the plain case: check a direct tail call works.
  ProgramBuilder PB("tailcall");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), G = A.newLabel();
  A.bind(F);
  A.addRI(Reg::RDI, 1, 8);
  A.jmpL(G); // tail call
  A.bind(G);
  A.leaRM(Reg::RAX, MemOperand{Reg::RDI, Reg::None, 1, 5, false}, 8);
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
}

TEST(Lifter, CtrlImmediateExceptionKeepsStatesApart) {
  // Two paths load different function pointers and meet; with the §4
  // exception the states stay apart and the indirect call resolves on
  // both; without it they join and the call is annotated.
  ProgramBuilder PB("fptr_diamond");
  Asm &A = PB.text();
  Asm::Label F = A.newLabel(), Else = A.newLabel(), Join = A.newLabel();
  Asm::Label CB1 = A.newLabel(), CB2 = A.newLabel();
  A.bind(F);
  A.subRI(Reg::RSP, 8, 8);
  A.testRR(Reg::RDI, Reg::RDI, 8);
  A.jccL(Cond::E, Else);
  A.leaRL(Reg::R10, CB1);
  A.jmpL(Join);
  A.bind(Else);
  A.leaRL(Reg::R10, CB2);
  A.bind(Join);
  A.callR(Reg::R10);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(CB1);
  A.movRI(Reg::RAX, 1, 4);
  A.ret();
  A.bind(CB2);
  A.movRI(Reg::RAX, 2, 4);
  A.ret();
  auto BB = PB.build(F);
  ASSERT_TRUE(BB.has_value());

  {
    hg::LiftConfig Cfg; // exception on (default)
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = L.liftBinary();
    EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
    EXPECT_EQ(R.totalC(), 0u) << "both callees resolved";
    EXPECT_GE(R.totalA(), 1u);
  }
  {
    hg::LiftConfig Cfg;
    Cfg.CtrlImmediateException = false; // ablation: join kills the pointers
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = L.liftBinary();
    EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
    EXPECT_GE(R.totalC(), 1u)
        << "joined-away immediates leave the call unresolved";
  }
}


TEST(Lifter, RecursionHandledContextFree) {
  // Direct (factorial) and mutual (even/odd) recursion: the context-free
  // treatment explores each function once; the may-return fixpoint settles
  // on "returns" because base cases exist (§4.2).
  auto BB = corpus::recursionBinary();
  ASSERT_TRUE(BB.has_value());
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;

  hg::BinaryResult RL = hg::Lifter(BB->Img, hg::LiftConfig()).liftLibrary();
  EXPECT_EQ(RL.Outcome, hg::LiftOutcome::Lifted) << RL.FailReason;
  for (const hg::FunctionResult &F : RL.Functions)
    EXPECT_TRUE(F.MayReturn);
}

TEST(Lifter, RecursionConcreteAgreesWithLift) {
  auto BB = corpus::recursionBinary();
  ASSERT_TRUE(BB.has_value());
  // fact is an exported symbol: run it concretely.
  uint64_t Fact = 0;
  for (const elf::Symbol &S : BB->Img.Functions)
    if (S.Name == "fact")
      Fact = S.Addr;
  ASSERT_NE(Fact, 0u);
  sem::Machine M(BB->Img);
  M.setupCall(Fact);
  M.setReg(Reg::RDI, 6);
  ASSERT_EQ(M.run(10000), sem::Machine::Status::Returned);
  EXPECT_EQ(M.reg(Reg::RAX), 720u);
}

/// Resident set size of this process, from /proc/self/statm.
uint64_t residentBytes() {
  std::ifstream F("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  F >> Size >> Resident;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(LiftArena, NoZ3StateUntilFirstQuery) {
  // An arena builds its Z3 context on the first residual query, so arenas
  // whose queries all settle in the cheaper tiers stay small. (An eager
  // context costs ~16 MB per arena.)
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  ASSERT_TRUE(Cfg.Solver.UseZ3);
  constexpr unsigned N = 64;
  constexpr uint64_t PerArenaBound = 1 << 20;
  std::vector<std::unique_ptr<hg::LiftArena>> Arenas;
  uint64_t Before = residentBytes();
  auto Growth = [Before] {
    uint64_t Now = residentBytes();
    return Now > Before ? Now - Before : 0;
  };
  for (unsigned I = 0; I < N; ++I) {
    Arenas.push_back(std::make_unique<hg::LiftArena>(BB->Img, Cfg));
    // Stop allocating once the bound is already broken.
    if (Growth() > N * PerArenaBound)
      break;
  }
  uint64_t Grew = Growth();
  EXPECT_LT(Grew / Arenas.size(), PerArenaBound)
      << Arenas.size() << " arenas grew the resident set by " << Grew
      << " bytes";
}

/// The definition weirdEdges() implements, as one scan over every vertex
/// per edge: an edge is weird when its target lies strictly inside the
/// byte range of some explored, decoded instruction.
std::vector<hg::Edge> weirdEdgesReference(const hg::HoareGraph &G) {
  std::vector<hg::Edge> Out;
  for (const hg::Edge &E : G.edges()) {
    uint64_t T = E.To.Rip;
    if (T == hg::RetTargetRip || T == hg::UnresolvedTargetRip)
      continue;
    for (const auto &[K, V] : G.Vertices) {
      if (!V.Explored || !V.Instr.isValid())
        continue;
      if (T > V.Instr.Addr && T < V.Instr.Addr + V.Instr.Length) {
        Out.push_back(E);
        break;
      }
    }
  }
  return Out;
}

void addInstr(hg::HoareGraph &G, uint64_t Addr, uint8_t Length,
              uint64_t CtrlHash = 0, bool Explored = true,
              Mnemonic Mn = Mnemonic::Mov) {
  hg::Vertex &V = G.Vertices[hg::VertexKey{Addr, CtrlHash}];
  V.Key = hg::VertexKey{Addr, CtrlHash};
  V.Explored = Explored;
  V.Instr.Addr = Addr;
  V.Instr.Length = Length;
  V.Instr.Mn = Mn;
}

void addEdgeTo(hg::HoareGraph &G, uint64_t From, uint64_t To) {
  hg::Edge E;
  E.From = hg::VertexKey{From, 0};
  E.To = hg::VertexKey{To, 0};
  G.addEdge(E);
}

std::vector<uint64_t> targets(const std::vector<hg::Edge> &Edges) {
  std::vector<uint64_t> Out;
  for (const hg::Edge &E : Edges)
    Out.push_back(E.To.Rip);
  return Out;
}

TEST(WeirdEdges, SpanBoundaries) {
  hg::HoareGraph G;
  addInstr(G, 0x1000, 5); // [0x1000, 0x1005)
  addInstr(G, 0x2000, 16);
  addInstr(G, 0x2002, 2); // nested; ends before 0x2008
  addInstr(G, 0x3000, 4, 0, /*Explored=*/false);
  addInstr(G, 0x3100, 4, 0, true, Mnemonic::Invalid);
  addInstr(G, 0x3200, 1);
  for (uint64_t T : {0x1000, 0x1001, 0x1004, 0x1005, 0x2008, 0x2003, 0x3001,
                     0x3101, 0x3200, 0x3201, 0xfff})
    addEdgeTo(G, 0x1000, T);
  addEdgeTo(G, 0x1000, hg::RetTargetRip);
  addEdgeTo(G, 0x1000, hg::UnresolvedTargetRip);
  // First byte and one past the last byte are not inside; the enclosing
  // span reaches 0x2008 past the nested one; unexplored and undecoded
  // vertices have no span; a one-byte instruction has no interior.
  EXPECT_EQ(targets(G.weirdEdges()),
            (std::vector<uint64_t>{0x1001, 0x1004, 0x2008, 0x2003}));
  EXPECT_EQ(G.weirdEdges(), weirdEdgesReference(G));
}

TEST(WeirdEdges, MatchesReferenceOnRandomGraphs) {
  Rng R(0x5ea);
  for (unsigned Round = 0; Round < 300; ++Round) {
    hg::HoareGraph G;
    uint64_t Base = R.chance(1, 10) ? ~uint64_t(0) - 64 : 0x401000;
    unsigned NV = static_cast<unsigned>(R.range(0, 40));
    std::vector<uint64_t> Addrs;
    for (unsigned I = 0; I < NV; ++I) {
      uint64_t A = Base + R.below(160);
      addInstr(G, A, static_cast<uint8_t>(R.range(0, 15)), R.below(3),
               !R.chance(1, 8),
               R.chance(1, 10) ? Mnemonic::Invalid : Mnemonic::Mov);
      Addrs.push_back(A);
    }
    unsigned NE = static_cast<unsigned>(R.range(0, 60));
    for (unsigned I = 0; I < NE; ++I) {
      uint64_t T;
      switch (R.below(4)) {
      case 0:
        T = Addrs.empty() ? Base : R.pick(Addrs); // an instruction start
        break;
      case 1:
        T = R.chance(1, 2) ? hg::RetTargetRip : hg::UnresolvedTargetRip;
        break;
      default:
        T = Base + R.below(176);
      }
      addEdgeTo(G, Addrs.empty() ? Base : R.pick(Addrs), T);
    }
    ASSERT_EQ(G.weirdEdges(), weirdEdgesReference(G)) << "round " << Round;
  }
}

/// The edge list as it was before out-edges were indexed: a linear
/// duplicate scan over every edge, and out-edges found by filtering.
struct LinearEdges {
  std::vector<hg::Edge> Edges;
  bool add(const hg::Edge &E) {
    for (const hg::Edge &X : Edges)
      if (X == E)
        return false;
    Edges.push_back(E);
    return true;
  }
  std::vector<hg::Edge> out(const hg::VertexKey &K) const {
    std::vector<hg::Edge> Out;
    for (const hg::Edge &E : Edges)
      if (E.From == K)
        Out.push_back(E);
    return Out;
  }
};

std::vector<hg::Edge> outOf(const hg::HoareGraph &G, const hg::VertexKey &K) {
  std::vector<hg::Edge> Out;
  for (const hg::Edge &E : G.outEdges(K))
    Out.push_back(E);
  return Out;
}

TEST(EdgeIndex, MatchesLinearScanOnRandomEdgeStreams) {
  Rng R(0xed9e);
  for (unsigned Round = 0; Round < 200; ++Round) {
    hg::HoareGraph G;
    LinearEdges Ref;
    // A small key space so that duplicates, shared sources and equal
    // sources with different control hashes are all common.
    auto key = [&] {
      return hg::VertexKey{0x1000 + R.below(12), R.below(3)};
    };
    unsigned N = static_cast<unsigned>(R.range(0, 150));
    for (unsigned I = 0; I < N; ++I) {
      if (R.chance(1, 60)) { // a VSA restart drops every edge
        G.clearEdges();
        Ref = LinearEdges();
        continue;
      }
      hg::Edge E;
      E.From = key();
      E.To = R.chance(1, 8) ? hg::VertexKey{hg::RetTargetRip, 0} : key();
      E.Kind = static_cast<sem::CtrlKind>(R.below(3));
      E.CalleeAddr = R.chance(1, 4) ? 0x2000 + R.below(2) : 0;
      E.ViaTable = R.chance(1, 6) ? 0x3000 : 0;
      E.Instr.Addr = R.next(); // not part of edge identity
      ASSERT_EQ(G.addEdge(E), Ref.add(E)) << "round " << Round;
    }
    ASSERT_EQ(G.edges(), Ref.Edges) << "insertion order kept";
    hg::HoareGraph Copy = G;
    for (uint64_t Rip = 0x1000; Rip < 0x1000 + 13; ++Rip)
      for (uint64_t H = 0; H < 4; ++H) {
        hg::VertexKey K{Rip, H};
        ASSERT_EQ(outOf(G, K), Ref.out(K)) << "round " << Round;
        ASSERT_EQ(outOf(Copy, K), Ref.out(K)) << "copies keep the index";
      }
  }
}

TEST(WeirdEdges, MatchesReferenceOnOverlappingCorpus) {
  for (auto BB : {corpus::weirdEdgeBinary(), corpus::overlappingBinary()}) {
    ASSERT_TRUE(BB.has_value());
    hg::BinaryResult R = hg::Lifter(BB->Img, hg::LiftConfig()).liftBinary();
    size_t Weird = 0;
    for (const hg::FunctionResult &F : R.Functions) {
      std::vector<hg::Edge> Got = F.Graph.weirdEdges();
      EXPECT_EQ(Got, weirdEdgesReference(F.Graph)) << BB->Img.Name;
      Weird += Got.size();
    }
    EXPECT_GT(Weird, 0u) << BB->Img.Name;
  }
}


/// The may-return fixpoint as it was before out-edges were indexed: every
/// dequeued vertex scans all of its function's edges.
void computeMayReturnReference(std::vector<hg::FunctionResult> &Fns) {
  std::map<uint64_t, hg::FunctionResult *> ByEntry;
  for (hg::FunctionResult &F : Fns)
    ByEntry[F.Entry] = &F;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (hg::FunctionResult &F : Fns) {
      if (!F.MayReturn)
        continue;
      std::set<hg::VertexKey> Seen{F.Graph.Initial};
      std::deque<hg::VertexKey> Q{F.Graph.Initial};
      bool RetReachable = false;
      while (!Q.empty()) {
        hg::VertexKey K = Q.front();
        Q.pop_front();
        for (const hg::Edge &E : F.Graph.edges()) {
          if (!(E.From == K))
            continue;
          if (E.To.Rip == hg::RetTargetRip) {
            RetReachable = true;
            continue;
          }
          if (E.Kind == sem::CtrlKind::CallInternal) {
            auto It = ByEntry.find(E.CalleeAddr);
            if (It != ByEntry.end() && !It->second->MayReturn)
              continue;
          }
          if (Seen.insert(E.To).second)
            Q.push_back(E.To);
        }
      }
      if (!RetReachable) {
        F.MayReturn = false;
        Changed = true;
      }
    }
  }
}

std::vector<bool> mayReturnFlags(const std::vector<hg::FunctionResult> &Fns) {
  std::vector<bool> Out;
  for (const hg::FunctionResult &F : Fns)
    Out.push_back(F.MayReturn);
  return Out;
}

/// Run both fixpoints on copies of Fns; both must clear the same flags.
void expectMayReturnMatchesReference(const std::vector<hg::FunctionResult> &Fns,
                                     const std::string &What) {
  std::vector<hg::FunctionResult> Got = Fns, Want = Fns;
  hg::computeMayReturn(Got);
  computeMayReturnReference(Want);
  EXPECT_EQ(mayReturnFlags(Got), mayReturnFlags(Want)) << What;
}

/// h calls f, f calls g, g calls exit: f and h each have a Ret edge that
/// only a non-returning call leads to, and h loses its flag only in the
/// fixpoint's second round (functions are visited in entry order).
std::optional<corpus::BuiltBinary> noReturnChainBinary() {
  ProgramBuilder PB("noreturn_chain");
  Asm &A = PB.text();
  Asm::Label H = A.newLabel(), F = A.newLabel(), G = A.newLabel();
  uint64_t Exit = PB.plt("exit");
  A.bind(H);
  A.subRI(Reg::RSP, 8, 8);
  A.callL(F);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(F);
  A.subRI(Reg::RSP, 8, 8);
  A.callL(G);
  A.movRI(Reg::RAX, 0x42, 4);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();
  A.bind(G);
  A.xorRR(Reg::RDI, Reg::RDI, 4);
  A.callAbs(Exit);
  return PB.build(H);
}

TEST(MayReturn, MatchesReferenceOnCorpus) {
  // Reset every flag to what the per-function lift leaves (a Ret edge
  // exists), then re-run the fixpoint both ways. The lift itself must
  // agree with the reference too.
  std::vector<std::optional<corpus::BuiltBinary>> Bins = {
      noReturnChainBinary(), corpus::callChainBinary(),
      corpus::recursionBinary(),
      corpus::branchLoopBinary(), corpus::overflowBinary(),
      corpus::concurrencyBinary(), corpus::weirdEdgeBinary()};
  size_t Cleared = 0;
  for (unsigned Seed = 1; Seed <= 4; ++Seed) {
    corpus::GenOptions G;
    G.Seed = 0x3e7 + Seed;
    G.NumFuncs = 6;
    G.TargetInstrs = 40;
    Bins.push_back(corpus::randomBinary(G));
  }
  for (auto &BB : Bins) {
    ASSERT_TRUE(BB.has_value());
    hg::BinaryResult R = hg::Lifter(BB->Img, hg::LiftConfig()).liftBinary();
    std::vector<hg::FunctionResult> Fns = R.Functions;
    for (hg::FunctionResult &F : Fns) {
      F.MayReturn = false;
      for (const hg::Edge &E : F.Graph.edges())
        F.MayReturn |= E.To.Rip == hg::RetTargetRip;
    }
    std::vector<hg::FunctionResult> Want = Fns;
    computeMayReturnReference(Want);
    EXPECT_EQ(mayReturnFlags(R.Functions), mayReturnFlags(Want))
        << BB->Img.Name;
    expectMayReturnMatchesReference(Fns, BB->Img.Name);
    for (size_t I = 0; I < Fns.size(); ++I)
      Cleared += Fns[I].MayReturn && !Want[I].MayReturn;
  }
  EXPECT_GT(Cleared, 0u) << "no corpus function lost MayReturn: the "
                            "comparison never exercised a cut";
}

TEST(MayReturn, MatchesReferenceOnRandomGraphs) {
  // Call graphs with cycles, self-calls, calls to unknown entries, edges
  // out of unreachable vertices and several vertices per rip.
  Rng R(0x3a7);
  size_t Cleared = 0;
  for (unsigned Round = 0; Round < 400; ++Round) {
    unsigned NF = static_cast<unsigned>(R.range(1, 6));
    std::vector<hg::FunctionResult> Fns(NF);
    for (unsigned FI = 0; FI < NF; ++FI) {
      hg::FunctionResult &F = Fns[FI];
      F.Entry = 0x1000 * (FI + 1);
      F.Graph.Initial = hg::VertexKey{F.Entry, 0};
      F.MayReturn = !R.chance(1, 6);
      unsigned NV = static_cast<unsigned>(R.range(1, 12));
      auto vertex = [&]() {
        return hg::VertexKey{F.Entry + R.below(NV), R.below(2)};
      };
      unsigned NE = static_cast<unsigned>(R.range(0, 24));
      for (unsigned I = 0; I < NE; ++I) {
        hg::Edge E;
        E.From = R.chance(1, 4) ? F.Graph.Initial : vertex();
        switch (R.below(5)) {
        case 0:
          E.To = hg::VertexKey{hg::RetTargetRip, 0};
          E.Kind = sem::CtrlKind::Ret;
          break;
        case 1:
        case 2:
          E.To = vertex();
          E.Kind = sem::CtrlKind::CallInternal;
          E.CalleeAddr =
              R.chance(1, 8) ? 0x77777 : 0x1000 * (R.below(NF) + 1);
          break;
        default:
          E.To = vertex();
          E.Kind = sem::CtrlKind::Fall;
        }
        F.Graph.addEdge(E);
      }
    }
    std::vector<hg::FunctionResult> Want = Fns;
    computeMayReturnReference(Want);
    for (unsigned FI = 0; FI < NF; ++FI)
      Cleared += Fns[FI].MayReturn && !Want[FI].MayReturn;
    expectMayReturnMatchesReference(Fns, "round " + std::to_string(Round));
  }
  EXPECT_GT(Cleared, 100u);
}

} // namespace
