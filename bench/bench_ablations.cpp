//===- bench_ablations.cpp - Ablations over the design choices ------------===//
//
// Google-benchmark microbenchmarks for the design decisions DESIGN.md
// calls out:
//
//   * Join        — joining on (Algorithm 1) vs off: without joining, loop
//                   states multiply until fuel runs out;
//   * Policy      — alias/separation branching (§1) vs destroy-always: the
//                   ablation loses the §2 weird edge and memory precision;
//   * Z3          — syntactic+interval core alone vs with the Z3 backend;
//   * AllocAssume — the stack/global/heap separation assumptions on/off:
//                   without them nearly every stack frame fails to verify.
//
// Counters report states, annotations and lift success so the precision
// effect is visible next to the time.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"

#include <benchmark/benchmark.h>

using namespace hglift;

namespace {

corpus::BuiltBinary &workload() {
  static corpus::BuiltBinary BB = [] {
    corpus::GenOptions G;
    G.Seed = 0xab1a;
    G.NumFuncs = 5;
    G.TargetInstrs = 80;
    G.JumpTablePct = 30;
    G.Name = "ablation_workload";
    return *corpus::randomBinary(G);
  }();
  return BB;
}

corpus::BuiltBinary &weird() {
  static corpus::BuiltBinary BB = *corpus::weirdEdgeBinary();
  return BB;
}

void report(benchmark::State &State, const hg::BinaryResult &R) {
  State.counters["states"] = static_cast<double>(R.totalStates());
  State.counters["instrs"] = static_cast<double>(R.totalInstructions());
  State.counters["A"] = R.totalA();
  State.counters["B"] = R.totalB();
  State.counters["C"] = R.totalC();
  State.counters["lifted"] = R.Outcome == hg::LiftOutcome::Lifted ? 1 : 0;
}

void runWith(benchmark::State &State, const corpus::BuiltBinary &BB,
             hg::LiftConfig Cfg) {
  hg::BinaryResult Last;
  for (auto _ : State) {
    hg::Lifter L(BB.Img, Cfg);
    Last = L.liftBinary();
    benchmark::DoNotOptimize(&Last);
  }
  report(State, Last);
}

void BM_Lift_Default(benchmark::State &State) {
  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 10;
  runWith(State, workload(), Cfg);
}
BENCHMARK(BM_Lift_Default)->Unit(benchmark::kMillisecond);

void BM_Lift_NoJoin(benchmark::State &State) {
  hg::LiftConfig Cfg;
  Cfg.EnableJoin = false;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 10;
  runWith(State, workload(), Cfg);
}
BENCHMARK(BM_Lift_NoJoin)->Unit(benchmark::kMillisecond);

void BM_Lift_DestroyAlways(benchmark::State &State) {
  hg::LiftConfig Cfg;
  Cfg.Sym.Policy = mem::UnknownPolicy::DestroyAlways;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 10;
  runWith(State, workload(), Cfg);
}
BENCHMARK(BM_Lift_DestroyAlways)->Unit(benchmark::kMillisecond);

void BM_Lift_NoZ3(benchmark::State &State) {
  hg::LiftConfig Cfg;
  Cfg.Solver.UseZ3 = false;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 10;
  runWith(State, workload(), Cfg);
}
BENCHMARK(BM_Lift_NoZ3)->Unit(benchmark::kMillisecond);

void BM_Lift_NoAllocAssumptions(benchmark::State &State) {
  hg::LiftConfig Cfg;
  Cfg.Solver.AllocClassAssumptions = false;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 10;
  runWith(State, workload(), Cfg);
}
BENCHMARK(BM_Lift_NoAllocAssumptions)->Unit(benchmark::kMillisecond);

// The §2 example under both unknown-relation policies: branching keeps the
// weird edge; destroying loses it (counter weird_edges).
void weirdEdgeUnder(benchmark::State &State, mem::UnknownPolicy Policy) {
  hg::LiftConfig Cfg;
  Cfg.Sym.Policy = Policy;
  size_t Weird = 0;
  hg::BinaryResult Last;
  for (auto _ : State) {
    hg::Lifter L(weird().Img, Cfg);
    Last = L.liftBinary();
    Weird = 0;
    for (const hg::FunctionResult &F : Last.Functions)
      Weird += F.Graph.weirdEdges().size();
  }
  report(State, Last);
  State.counters["weird_edges"] = static_cast<double>(Weird);
}

void BM_WeirdEdge_Branching(benchmark::State &State) {
  weirdEdgeUnder(State, mem::UnknownPolicy::BranchAliasOrSep);
}
BENCHMARK(BM_WeirdEdge_Branching)->Unit(benchmark::kMillisecond);

void BM_WeirdEdge_DestroyAlways(benchmark::State &State) {
  weirdEdgeUnder(State, mem::UnknownPolicy::DestroyAlways);
}
BENCHMARK(BM_WeirdEdge_DestroyAlways)->Unit(benchmark::kMillisecond);

// Decoder throughput over the workload's text bytes.
void BM_Decoder(benchmark::State &State) {
  const corpus::BuiltBinary &BB = workload();
  size_t Avail;
  const uint8_t *Bytes = BB.Img.bytesAt(BB.Img.Entry, Avail);
  size_t Decoded = 0; // instructions in one pass (every pass is the same)
  for (auto _ : State) {
    size_t Off = 0;
    Decoded = 0;
    while (Off < Avail) {
      x86::Instr I = x86::decodeInstr(Bytes + Off, Avail - Off,
                                      BB.Img.Entry + Off);
      if (!I.isValid())
        break;
      Off += I.Length;
      ++Decoded;
    }
  }
  State.counters["instrs_per_pass"] = static_cast<double>(Decoded);
}
BENCHMARK(BM_Decoder);

} // namespace

BENCHMARK_MAIN();
