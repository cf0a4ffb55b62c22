//===- bench_shard.cpp - Sharded lifting + solver-portfolio gates ---------===//
//
// The harness that proves the two subsystems this bench is named for are
// pure speed, no drift:
//
//   * portfolio gates: lifting the hotpath corpus with the tiered solver
//     portfolio must (a) leave every Hoare graph, obligation and outcome
//     identical to the legacy single-tier path, (b) cut the number of
//     Z3-tier round trips by >= 1.5x, and (c) cut uncached query time
//     (LiftStats::SolverSeconds) by >= 1.5x — all on a single CPU, no
//     parallelism involved;
//   * differential gate: every recorded query replayed through each tier
//     in isolation, zero tiers contradicting the forced-Z3 oracle and
//     zero definite answers forfeited by the tier-2 admission filter
//     (queries under unsatisfiable predicates are vacuous and excluded —
//     see tests/solver_portfolio_test.cpp);
//   * shard gate: the merged report of a 2- and 4-worker `hglift shard`
//     run is byte-identical to the serial run;
//   * scaling gate (full mode, >= 4 hardware threads only — auto-skipped
//     and reported as such on smaller machines): 4 workers beat the
//     serial run by >= 1.3x wall clock;
//   * skew gate (same auto-skip rule, with the reason recorded in the
//     JSON): on a corpus with one dominant binary parked behind a static
//     round-robin slice-mate, the work-stealing scheduler beats the
//     --no-work-stealing ablation by >= 1.3x wall clock with identical
//     merged bytes; a ledger-warm rerun (observed seconds driving claim
//     order, artifact store dropped) is timed alongside.
//
// Results go to BENCH_shard.json (--out PATH to override). --smoke runs a
// tiny corpus and only the identity/consistency gates; that mode is wired
// into ctest tier 1, the full run into tier 2.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "shard/Shard.h"
#include "smt/RelationSolver.h"
#include "support/Format.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace hglift;

namespace {

// --- corpus (same shape as bench_step1_hotpath) --------------------------

struct CorpusItem {
  std::string Name;
  corpus::BuiltBinary BB;
  bool Library;
};

std::vector<CorpusItem> buildCorpus(bool Smoke) {
  std::vector<CorpusItem> Items;
  auto Add = [&](const char *Name, std::optional<corpus::BuiltBinary> BB,
                 bool Library) {
    if (BB)
      Items.push_back({Name, std::move(*BB), Library});
    else
      std::fprintf(stderr, "warning: corpus item %s failed to build\n", Name);
  };
  Add("branch_loop", corpus::branchLoopBinary(), false);
  Add("jump_table", corpus::jumpTableBinary(), false);
  if (Smoke) {
    Add("call_chain", corpus::callChainBinary(), false);
    return Items;
  }
  Add("weird_edge", corpus::weirdEdgeBinary(), false);
  Add("straightline", corpus::straightlineBinary(), false);
  Add("call_chain", corpus::callChainBinary(), false);
  Add("callback", corpus::callbackBinary(), false);
  Add("recursion", corpus::recursionBinary(), false);
  Add("ret2win", corpus::ret2winBinary(), false);
  Add("overflow", corpus::overflowBinary(), false);
  Add("stack_probe", corpus::stackProbeBinary(), false);
  struct LibDef {
    uint64_t Seed;
    unsigned Funcs, Instrs, JumpTablePct;
  };
  for (LibDef D : {LibDef{0x40710a, 6, 120, 30}, LibDef{0x40710b, 4, 250, 20},
                   LibDef{0x40710c, 8, 60, 40}}) {
    corpus::GenOptions G;
    G.Seed = D.Seed;
    G.NumFuncs = D.Funcs;
    G.TargetInstrs = D.Instrs;
    G.JumpTablePct = D.JumpTablePct;
    G.Name = "hotpath_lib_" + std::to_string(D.Seed & 0xf);
    Add(G.Name.c_str(), corpus::randomLibrary(G), true);
  }
  return Items;
}

// --- structural fingerprint (fresh numbering stripped, order-insensitive
// parts sorted; same convention as bench_step1_hotpath) -------------------

std::string stripFreshNumbers(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I) {
    Out += S[I];
    if (S[I] == '#')
      while (I + 1 < S.size() && isdigit(static_cast<unsigned char>(S[I + 1])))
        ++I;
  }
  return Out;
}

std::string fingerprint(const hg::BinaryResult &R) {
  std::string S;
  S += "outcome " + std::string(hg::liftOutcomeName(R.Outcome)) + " " +
       R.FailReason + "\n";
  for (const hg::FunctionResult &F : R.Functions) {
    S += "fn " + hexStr(F.Entry) + " " +
         std::string(hg::liftOutcomeName(F.Outcome)) + " " + F.FailReason;
    if (F.Outcome != hg::LiftOutcome::Lifted) {
      S += "\n";
      continue;
    }
    S += " ret " + std::to_string(F.MayReturn) + "\n";
    std::vector<std::string> Lines, Edges;
    for (const auto &[Key, V] : F.Graph.Vertices) {
      std::string L = "  v " + hexStr(Key.Rip);
      if (F.Arena) {
        L += " P=" + stripFreshNumbers(V.State.P.str(F.Arena->ctx()));
        L += " M=" + stripFreshNumbers(V.State.M.str(F.Arena->ctx()));
      }
      Lines.push_back(std::move(L));
    }
    for (const hg::Edge &E : F.Graph.Edges)
      Edges.push_back("  e " + hexStr(E.From.Rip) + " -> " +
                      hexStr(E.To.Rip));
    std::sort(Lines.begin(), Lines.end());
    std::sort(Edges.begin(), Edges.end());
    for (auto &L : Lines)
      S += L + "\n";
    for (auto &E : Edges)
      S += E + "\n";
  }
  std::vector<std::string> Obls = R.allObligations();
  for (auto &O : Obls)
    O = stripFreshNumbers(O);
  std::sort(Obls.begin(), Obls.end());
  for (auto &O : Obls)
    S += "obl " + O + "\n";
  return S;
}

// --- phase 1: portfolio vs legacy ----------------------------------------

struct ModeTotals {
  double Wall = 0;
  LiftStats Stats;
  std::vector<std::string> Fingerprints;
};

ModeTotals runMode(const std::vector<CorpusItem> &Corpus, bool Portfolio,
                   int Reps) {
  ModeTotals T;
  hg::LiftConfig Cfg;
  Cfg.Solver.Portfolio = Portfolio;
  double BestWall = -1;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    LiftStats Run;
    auto T0 = std::chrono::steady_clock::now();
    for (const CorpusItem &It : Corpus) {
      hg::Lifter L(It.BB.Img, Cfg);
      hg::BinaryResult R = It.Library ? L.liftLibrary() : L.liftBinary();
      Run.merge(R.Total);
      if (Rep == 0)
        T.Fingerprints.push_back(fingerprint(R));
    }
    double Secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    // Best-of-N for both wall time and the solver-seconds counter (they
    // co-vary; a noisy rep inflates both).
    if (BestWall < 0 || Secs < BestWall) {
      BestWall = Secs;
      T.Stats = Run;
    }
  }
  T.Wall = BestWall;
  return T;
}

// --- phase 2: differential replay ----------------------------------------

struct DiffTotals {
  uint64_t Replayed = 0;
  uint64_t UnsatSkipped = 0;
  uint64_t Disagreements = 0;
};

void replayOne(smt::RelationSolver &S, DiffTotals &D) {
  using smt::MemRel;
  using smt::Tier;
  for (const smt::RelationSolver::LoggedQuery &Q : S.queryLog()) {
    smt::Region R0{Q.A0, Q.S0}, R1{Q.A1, Q.S1};
    // Vacuous under an unsatisfiable predicate: every relation "holds".
    if (S.decideWithTierOnly(R0, R0, Q.P, Tier::Z3).Rel == MemRel::MustSep) {
      ++D.UnsatSkipped;
      continue;
    }
    ++D.Replayed;
    MemRel T0 = S.decideWithTierOnly(R0, R1, Q.P, Tier::Syntactic).Rel;
    MemRel T1 = S.decideWithTierOnly(R0, R1, Q.P, Tier::Interval).Rel;
    MemRel Z = S.decideWithTierOnly(R0, R1, Q.P, Tier::Z3).Rel;
    auto Def = [](MemRel R) { return R != MemRel::Unknown; };
    if (Def(T0) && Def(Z) && T0 != Z)
      ++D.Disagreements;
    if (Def(T1) && Def(Z) && T1 != Z)
      ++D.Disagreements;
    if (Def(T0) && Def(T1) && T0 != T1)
      ++D.Disagreements;
    // The admission filter (and any fallthrough) may only drop answers
    // the oracle cannot produce either.
    if (Q.DecidedBy == Tier::None && Def(Z))
      ++D.Disagreements;
  }
}

DiffTotals runDifferential(const std::vector<CorpusItem> &Corpus) {
  DiffTotals D;
  hg::LiftConfig Cfg;
  Cfg.Solver.LogQueries = true;
  for (const CorpusItem &It : Corpus) {
    hg::Lifter L(It.BB.Img, Cfg);
    hg::BinaryResult R = It.Library ? L.liftLibrary() : L.liftBinary();
    for (hg::FunctionResult &F : R.Functions)
      if (F.Arena)
        replayOne(F.Arena->solver(), D);
  }
  return D;
}

// --- phase 3/4: shard byte identity and scaling --------------------------

std::vector<std::string> corpusToDisk(const std::vector<CorpusItem> &Corpus,
                                      const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  std::vector<std::string> Paths;
  for (const CorpusItem &It : Corpus) {
    std::string P = Dir + "/" + It.Name + ".elf";
    std::ofstream Out(P, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(It.BB.ElfBytes.data()),
              static_cast<std::streamsize>(It.BB.ElfBytes.size()));
    Paths.push_back(P);
  }
  return Paths;
}

struct ShardRun {
  bool Ok = false;
  double Wall = 0;
  std::string Report;
};

ShardRun runShardMode(const std::vector<std::string> &Paths,
                      const std::string &CacheDir, unsigned Shards) {
  std::filesystem::remove_all(CacheDir);
  shard::ShardOptions O;
  O.Binaries = Paths;
  O.Shards = Shards;
  O.Base.Cache.Dir = CacheDir;
  O.WorkerExe = HGLIFT_BIN;
  auto T0 = std::chrono::steady_clock::now();
  shard::ShardResult R = shard::runShards(O);
  ShardRun Out;
  Out.Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Out.Ok = R.Ok;
  Out.Report = std::move(R.MergedReport);
  if (!R.Ok)
    std::fprintf(stderr, "shard run (%u): %s\n", Shards, R.Error.c_str());
  return Out;
}

// --- phase 5: skewed corpus, work stealing vs static round-robin ----------

/// Twelve small shared objects and one dominant one (~4x a small one's
/// cost), the dominant placed at an index the round-robin plan maps to a
/// worker that also owns small binaries. Static assignment serializes the
/// dominant binary behind its slice-mates; the pull scheduler starts it
/// first (longest-job-first via the cost heuristic) and spreads the small
/// ones over the remaining workers.
std::vector<std::string> skewCorpusToDisk(const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  std::vector<std::string> Paths;
  auto Emit = [&](const corpus::GenOptions &G) {
    auto BB = corpus::randomLibrary(G);
    if (!BB) {
      std::fprintf(stderr, "warning: skew item %s failed to build\n",
                   G.Name.c_str());
      return;
    }
    std::string P = Dir + "/" + G.Name + ".elf";
    std::ofstream Out(P, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(BB->ElfBytes.data()),
              static_cast<std::streamsize>(BB->ElfBytes.size()));
    Paths.push_back(P);
  };
  for (unsigned I = 0; I < 12; ++I) {
    corpus::GenOptions G;
    G.Seed = 0x5e3d00 + I;
    G.NumFuncs = 3;
    G.TargetInstrs = 40;
    G.JumpTablePct = 10;
    G.Name = "skew_small_" + std::to_string(I);
    Emit(G);
    if (I == 3) {
      // Index 4: worker 0's slice under a 4-worker round-robin, behind
      // its index-0 small binary.
      corpus::GenOptions D;
      D.Seed = 0x5e3dff;
      D.NumFuncs = 10;
      D.TargetInstrs = 160;
      D.JumpTablePct = 20;
      D.Name = "skew_dominant";
      Emit(D);
    }
  }
  return Paths;
}

struct SkewRun {
  bool Ok = false;
  double Wall = 0;
  uint64_t Steals = 0;
  std::string Report;
};

SkewRun runSkewMode(const std::vector<std::string> &Paths,
                    const std::string &CacheDir, bool Stealing, bool Fresh) {
  if (Fresh)
    std::filesystem::remove_all(CacheDir);
  shard::ShardOptions O;
  O.Binaries = Paths;
  O.Shards = 4;
  O.WorkStealing = Stealing;
  O.Base.Library = true;
  O.Base.Cache.Dir = CacheDir;
  O.WorkerExe = HGLIFT_BIN;
  auto T0 = std::chrono::steady_clock::now();
  shard::ShardResult R = shard::runShards(O);
  SkewRun Out;
  Out.Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Out.Ok = R.Ok;
  Out.Steals = R.Sched.Steals;
  Out.Report = std::move(R.MergedReport);
  if (!R.Ok)
    std::fprintf(stderr, "skew run (%s): %s\n",
                 Stealing ? "stealing" : "static", R.Error.c_str());
  return Out;
}

std::string jsonNum(double D) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", D);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  bool ForceSkew = false;
  std::string OutPath = "BENCH_shard.json";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--smoke")
      Smoke = true;
    else if (A == "--force-skew")
      // Maintainer knob: run the skew phase even where it would auto-skip
      // (smoke mode, few hardware threads). The speedup gate still
      // applies, so expect a FAIL on machines without real parallelism —
      // this is for exercising the phase, not for passing it.
      ForceSkew = true;
    else if (A == "--out" && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_shard [--smoke] [--force-skew] [--out F]\n");
      return 2;
    }
  }

  std::vector<CorpusItem> Corpus = buildCorpus(Smoke);
  const int Reps = Smoke ? 1 : 3;
  std::printf("shard/portfolio bench: %zu corpus binaries, %d rep%s%s\n\n",
              Corpus.size(), Reps, Reps == 1 ? "" : "s",
              Smoke ? " (smoke)" : "");

  // Phase 1: portfolio vs legacy, single CPU.
  ModeTotals Legacy = runMode(Corpus, /*Portfolio=*/false, Reps);
  ModeTotals Port = runMode(Corpus, /*Portfolio=*/true, Reps);
  bool StructIdentical = Legacy.Fingerprints == Port.Fingerprints;
  double Z3Reduction =
      Port.Stats.Z3Queries
          ? double(Legacy.Stats.Z3Queries) / double(Port.Stats.Z3Queries)
          : (Legacy.Stats.Z3Queries ? 1e9 : 1.0);
  double TimeReduction = Port.Stats.SolverSeconds > 0
                             ? Legacy.Stats.SolverSeconds /
                                   Port.Stats.SolverSeconds
                             : 1.0;
  std::printf("%-10s wall %7.3fs solver %7.4fs z3 %6llu tier2skip %llu\n",
              "legacy", Legacy.Wall, Legacy.Stats.SolverSeconds,
              (unsigned long long)Legacy.Stats.Z3Queries,
              (unsigned long long)Legacy.Stats.SolverTier2Skipped);
  std::printf("%-10s wall %7.3fs solver %7.4fs z3 %6llu tier2skip %llu\n",
              "portfolio", Port.Wall, Port.Stats.SolverSeconds,
              (unsigned long long)Port.Stats.Z3Queries,
              (unsigned long long)Port.Stats.SolverTier2Skipped);
  std::printf("z3 reduction %.2fx, query-time reduction %.2fx, structures "
              "%s\n\n",
              Z3Reduction, TimeReduction,
              StructIdentical ? "identical" : "DIFFER");

  // Phase 2: differential tier replay.
  DiffTotals Diff = runDifferential(Corpus);
  std::printf("differential: %llu replayed, %llu vacuous (unsat pred), "
              "%llu disagreements\n\n",
              (unsigned long long)Diff.Replayed,
              (unsigned long long)Diff.UnsatSkipped,
              (unsigned long long)Diff.Disagreements);

  // Phase 3: shard byte identity (2 and 4 workers vs serial).
  std::string WorkRoot = "/tmp/hglift_bench_shard";
  std::vector<std::string> Paths = corpusToDisk(Corpus, WorkRoot + "/elfs");
  ShardRun Serial = runShardMode(Paths, WorkRoot + "/cache_serial", 1);
  ShardRun Two = runShardMode(Paths, WorkRoot + "/cache_2", 2);
  ShardRun Four = runShardMode(Paths, WorkRoot + "/cache_4", 4);
  bool ShardOk = Serial.Ok && Two.Ok && Four.Ok;
  bool Identical2 = ShardOk && Two.Report == Serial.Report;
  bool Identical4 = ShardOk && Four.Report == Serial.Report;
  std::printf("shard: serial %.3fs, 2w %.3fs, 4w %.3fs; bytes %s/%s\n\n",
              Serial.Wall, Two.Wall, Four.Wall,
              Identical2 ? "identical" : "DIFFER",
              Identical4 ? "identical" : "DIFFER");

  // Phase 4: process scaling — only meaningful with real parallelism
  // underneath, so auto-skip below 4 hardware threads.
  unsigned HwThreads = std::thread::hardware_concurrency();
  bool ScalingSkipped = Smoke || HwThreads < 4;
  double ScalingSpeedup = 0;
  bool ScalingPass = true;
  if (!ScalingSkipped) {
    // Re-run (cold caches) to time without first-run artifacts.
    ShardRun S1 = runShardMode(Paths, WorkRoot + "/cache_scale1", 1);
    ShardRun S4 = runShardMode(Paths, WorkRoot + "/cache_scale4", 4);
    ScalingSpeedup = S4.Wall > 0 ? S1.Wall / S4.Wall : 0;
    ScalingPass = S1.Ok && S4.Ok && ScalingSpeedup >= 1.3;
    std::printf("scaling: serial %.3fs vs 4 workers %.3fs = %.2fx "
                "(%u hw threads)\n\n",
                S1.Wall, S4.Wall, ScalingSpeedup, HwThreads);
  } else {
    std::printf("scaling: skipped (%s)\n\n",
                Smoke ? "smoke mode"
                      : "fewer than 4 hardware threads");
  }

  // Phase 5: skewed corpus — one dominant binary behind a static
  // round-robin slice-mate. The pull scheduler must recover the idle
  // time: >= 1.3x wall clock over the --no-work-stealing ablation, same
  // bytes. Needs real parallelism underneath, so auto-skipped (and the
  // reason recorded) below 4 hardware threads and in smoke mode.
  bool SkewSkipped = (Smoke || HwThreads < 4) && !ForceSkew;
  std::string SkewSkipReason =
      !SkewSkipped ? ""
      : Smoke      ? "smoke mode"
                   : "fewer than 4 hardware threads";
  double SkewSpeedup = 0, SkewRRWall = 0, SkewWSWall = 0, SkewWarmWall = 0;
  uint64_t SkewSteals = 0;
  bool SkewPass = true, SkewIdentical = true;
  if (!SkewSkipped) {
    std::vector<std::string> SkewPaths =
        skewCorpusToDisk(WorkRoot + "/skew_elfs");
    std::string SkewCacheRR = WorkRoot + "/cache_skew_rr";
    std::string SkewCacheWS = WorkRoot + "/cache_skew_ws";
    SkewRun RR = runSkewMode(SkewPaths, SkewCacheRR, /*Stealing=*/false,
                             /*Fresh=*/true);
    SkewRun WS = runSkewMode(SkewPaths, SkewCacheWS, /*Stealing=*/true,
                             /*Fresh=*/true);
    // Ledger-warm: keep the cost ledger from the stealing run but drop
    // the lifted-artifact store, so the rerun re-lifts everything with
    // observed seconds (not the static heuristic) driving claim order.
    std::filesystem::remove_all(SkewCacheWS + "/objects");
    std::filesystem::remove_all(SkewCacheWS + "/shard");
    SkewRun Warm = runSkewMode(SkewPaths, SkewCacheWS, /*Stealing=*/true,
                               /*Fresh=*/false);
    SkewRRWall = RR.Wall;
    SkewWSWall = WS.Wall;
    SkewWarmWall = Warm.Wall;
    SkewSteals = WS.Steals;
    SkewSpeedup = WS.Wall > 0 ? RR.Wall / WS.Wall : 0;
    SkewIdentical = RR.Ok && WS.Ok && Warm.Ok && WS.Report == RR.Report &&
                    Warm.Report == RR.Report;
    SkewPass = SkewIdentical && SkewSpeedup >= 1.3;
    std::printf("skew: round-robin %.3fs vs stealing %.3fs = %.2fx "
                "(ledger-warm %.3fs, %llu steals); bytes %s\n\n",
                RR.Wall, WS.Wall, SkewSpeedup, Warm.Wall,
                (unsigned long long)WS.Steals,
                SkewIdentical ? "identical" : "DIFFER");
  } else {
    std::printf("skew: skipped (%s)\n\n", SkewSkipReason.c_str());
  }

  // Gates. Timing/count reductions only gate the full run (smoke corpora
  // are too small for stable ratios).
  bool GateStruct = StructIdentical;
  bool GateDiff = Diff.Disagreements == 0;
  bool GateShard = Identical2 && Identical4;
  bool GateZ3 = Smoke || Z3Reduction >= 1.5;
  bool GateTime = Smoke || TimeReduction >= 1.5;
  bool Pass = GateStruct && GateDiff && GateShard && GateZ3 && GateTime &&
              ScalingPass && SkewPass;

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 3;
  }
  Out << "{\n"
      << "  \"bench\": \"shard\",\n"
      << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
      << "  \"corpus_binaries\": " << Corpus.size() << ",\n"
      << "  \"portfolio\": {\n"
      << "    \"legacy_z3_queries\": " << Legacy.Stats.Z3Queries << ",\n"
      << "    \"portfolio_z3_queries\": " << Port.Stats.Z3Queries << ",\n"
      << "    \"z3_reduction\": " << jsonNum(Z3Reduction) << ",\n"
      << "    \"legacy_solver_seconds\": "
      << jsonNum(Legacy.Stats.SolverSeconds) << ",\n"
      << "    \"portfolio_solver_seconds\": "
      << jsonNum(Port.Stats.SolverSeconds) << ",\n"
      << "    \"query_time_reduction\": " << jsonNum(TimeReduction) << ",\n"
      << "    \"tier0_hits\": " << Port.Stats.SolverTier0Hits << ",\n"
      << "    \"tier1_hits\": " << Port.Stats.SolverTier1Hits << ",\n"
      << "    \"class_hits\": " << Port.Stats.SolverClassHits << ",\n"
      << "    \"tier2_hits\": " << Port.Stats.SolverTier2Hits << ",\n"
      << "    \"tier2_skipped\": " << Port.Stats.SolverTier2Skipped << ",\n"
      << "    \"fallthroughs\": " << Port.Stats.SolverFallthroughs << ",\n"
      << "    \"structures_identical\": "
      << (StructIdentical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"differential\": {\n"
      << "    \"replayed\": " << Diff.Replayed << ",\n"
      << "    \"vacuous_unsat\": " << Diff.UnsatSkipped << ",\n"
      << "    \"disagreements\": " << Diff.Disagreements << "\n"
      << "  },\n"
      << "  \"shard\": {\n"
      << "    \"serial_report_bytes\": " << Serial.Report.size() << ",\n"
      << "    \"identical_2_workers\": " << (Identical2 ? "true" : "false")
      << ",\n"
      << "    \"identical_4_workers\": " << (Identical4 ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"scaling\": {\n"
      << "    \"hardware_threads\": " << HwThreads << ",\n"
      << "    \"skipped\": " << (ScalingSkipped ? "true" : "false") << ",\n"
      << "    \"speedup_4_workers\": " << jsonNum(ScalingSpeedup) << "\n"
      << "  },\n"
      << "  \"skew\": {\n"
      << "    \"skipped\": " << (SkewSkipped ? "true" : "false") << ",\n"
      << "    \"skip_reason\": \"" << SkewSkipReason << "\",\n"
      << "    \"round_robin_wall_seconds\": " << jsonNum(SkewRRWall) << ",\n"
      << "    \"work_stealing_wall_seconds\": " << jsonNum(SkewWSWall)
      << ",\n"
      << "    \"ledger_warm_wall_seconds\": " << jsonNum(SkewWarmWall)
      << ",\n"
      << "    \"speedup\": " << jsonNum(SkewSpeedup) << ",\n"
      << "    \"steals\": " << SkewSteals << ",\n"
      << "    \"bytes_identical\": " << (SkewIdentical ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"gates\": {\n"
      << "    \"structural_identity\": " << (GateStruct ? "true" : "false")
      << ",\n"
      << "    \"zero_tier_disagreements\": " << (GateDiff ? "true" : "false")
      << ",\n"
      << "    \"shard_byte_identity\": " << (GateShard ? "true" : "false")
      << ",\n"
      << "    \"z3_reduction_1_5x\": " << (GateZ3 ? "true" : "false") << ",\n"
      << "    \"query_time_reduction_1_5x\": "
      << (GateTime ? "true" : "false") << ",\n"
      << "    \"process_scaling\": "
      << (ScalingSkipped ? "\"skipped\"" : (ScalingPass ? "true" : "false"))
      << ",\n"
      << "    \"skew_speedup_1_3x\": "
      << (SkewSkipped ? "\"skipped\"" : (SkewPass ? "true" : "false")) << "\n"
      << "  },\n"
      << "  \"pass\": " << (Pass ? "true" : "false") << "\n"
      << "}\n";
  std::printf("%s -> %s\n", Pass ? "PASS" : "FAIL", OutPath.c_str());
  return Pass ? 0 : 1;
}
