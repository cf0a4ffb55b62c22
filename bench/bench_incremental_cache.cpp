//===- bench_incremental_cache.cpp - Artifact-store incremental relift ----===//
//
// Measures what the content-addressed artifact store (src/store) buys for
// the edit-compile-verify loop: lift a corpus cold into a fresh cache
// directory, lift it again warm (every function served from the store and
// re-proven through Step-2), then simulate an incremental rebuild by
// patching one function's instruction bytes and re-lifting — only the
// patched function may miss. Gates:
//
//   * warm soundness: the warm run misses nothing, and every hit is
//     re-validated through the Step-2 checker (Validated == Hits) — a hit
//     is never trusted;
//   * report identity: the warm run's --report-json bytes are identical to
//     the cold run's, per corpus binary;
//   * incremental precision: after patching one function, the re-lift
//     misses at least once (the patched body) and still hits at least once
//     (everything else);
//   * speedup (full mode only): the warm run is >= 3x faster than cold —
//     Step-1's fixpoint must dominate deserialize + Step-2 re-proof.
//
// Results go to BENCH_incremental.json (override with --out PATH). --smoke
// runs a tiny corpus and skips the timing gate — that mode is wired into
// ctest as tier-1; the full run is registered as tier-2. The stores live in
// a fresh mkdtemp directory under $TMPDIR, removed on exit.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "store/Serialize.h"
#include "store/Store.h"

#include "WorkDir.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hglift;
namespace fs = std::filesystem;

namespace {

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
  Add("call_chain", corpus::callChainBinary(), false);
  if (Smoke)
    return Items;

  Add("jump_table", corpus::jumpTableBinary(), false);
  Add("recursion", corpus::recursionBinary(), false);
  Add("ret2win", corpus::ret2winBinary(), false);

  // Generated libraries: loop- and join-heavy code is where Step-1's
  // fixpoint (the cost the store amortizes away) dominates Step-2's
  // single-pass re-proof.
  struct LibDef {
    uint64_t Seed;
    unsigned Funcs, Instrs, JumpTablePct;
  };
  for (LibDef D : {LibDef{0xcace01, 6, 140, 30}, LibDef{0xcace02, 4, 220, 20},
                   LibDef{0xcace03, 8, 80, 35}}) {
    corpus::GenOptions G;
    G.Seed = D.Seed;
    G.NumFuncs = D.Funcs;
    G.TargetInstrs = D.Instrs;
    G.JumpTablePct = D.JumpTablePct;
    G.Name = "cache_lib_" + std::to_string(D.Seed & 0xf);
    Add(G.Name.c_str(), corpus::randomLibrary(G), true);
  }
  return Items;
}

struct PassResult {
  double Seconds = 0;
  store::CacheStats Stats; ///< summed across the corpus sessions
  std::vector<std::string> Reports;
};

/// One full pass over the corpus — lift, check, render the report — the
/// whole edit-loop turnaround the store is meant to shorten. Each binary
/// gets its own cache subdirectory: index refs are keyed by (function
/// entry, config digest), so distinct binaries with overlapping layouts
/// sharing one directory would evict each other's refs (sound — the byte
/// digest degrades that to a miss — but it defeats the warm path).
PassResult runPass(const std::vector<CorpusItem> &Items,
                   const fs::path &CacheDir) {
  PassResult P;
  auto T0 = std::chrono::steady_clock::now();
  for (const CorpusItem &I : Items) {
    Options O;
    O.Library = I.Library;
    O.Cache.Dir = (CacheDir / I.Name).string();
    Session S(I.BB.Img, O);
    S.lift();
    S.check();
    std::ostringstream OS;
    S.writeReportJson(OS);
    P.Reports.push_back(OS.str());
    if (auto CS = S.cacheStats())
      P.Stats += *CS;
  }
  P.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return P;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_incremental.json";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--smoke")
      Smoke = true;
    else if (A == "--out" && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_incremental_cache [--smoke] [--out F]\n");
      return 2;
    }
  }

  std::vector<CorpusItem> Corpus = buildCorpus(Smoke);
  const int Reps = Smoke ? 1 : 3;
  bench::WorkDir Work("hglift_bench_incremental");
  if (Work.Path.empty()) {
    std::fprintf(stderr, "cannot create a work directory\n");
    return 3;
  }
  fs::path Dir = fs::path(Work.Path) / "cache";

  std::printf("incremental cache: %zu corpus binaries, %d timing rep%s\n\n",
              Corpus.size(), Reps, Reps == 1 ? "" : "s");

  // Cold: every rep starts from an empty directory; the last rep leaves it
  // populated for the warm phase.
  PassResult Cold;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    PassResult P = runPass(Corpus, Dir);
    if (Rep == 0 || P.Seconds < Cold.Seconds) {
      double Best = P.Seconds;
      Cold = std::move(P);
      Cold.Seconds = Best;
    }
  }

  // Warm: everything should be served from the store and re-proven.
  PassResult Warm;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    PassResult P = runPass(Corpus, Dir);
    if (Rep == 0 || P.Seconds < Warm.Seconds) {
      double Best = P.Seconds;
      Warm = std::move(P);
      Warm.Seconds = Best;
    }
  }

  bool WarmAllHit = Warm.Stats.Hits > 0 && Warm.Stats.Misses == 0 &&
                    Warm.Stats.Validated == Warm.Stats.Hits;
  bool WarmIdentical = Warm.Reports == Cold.Reports;
  if (!WarmIdentical)
    for (size_t I = 0; I < Corpus.size(); ++I)
      if (Warm.Reports[I] != Cold.Reports[I])
        std::fprintf(stderr, "REPORT DIVERGED: %s warm != cold\n",
                     Corpus[I].Name.c_str());

  // Incremental rebuild: patch one instruction byte in one function of the
  // last corpus item (the heaviest library in full mode) and re-lift it.
  // Untimed prelude: find a patchable span via a cached lookup.
  const CorpusItem &VictimItem = Corpus.back();
  const hg::FunctionResult *Victim = nullptr;
  hg::BinaryResult VictimR;
  {
    Options O;
    O.Library = VictimItem.Library;
    O.Cache.Dir = (Dir / VictimItem.Name).string();
    Session S(VictimItem.BB.Img, O);
    VictimR = S.lift(); // copy — outlives the session
  }
  for (const hg::FunctionResult &F : VictimR.Functions)
    if (F.Outcome == hg::LiftOutcome::Lifted &&
        (!Victim || F.Entry > Victim->Entry))
      Victim = &F;

  double IncSeconds = 0;
  store::CacheStats IncStats;
  bool IncOK = false;
  if (Victim) {
    std::vector<store::Span> Spans = store::instructionSpans(*Victim);
    corpus::BuiltBinary Patched = VictimItem.BB;
    bool Done = false;
    for (elf::Segment &Seg : Patched.Img.Segments) {
      uint64_t A = Spans.empty() ? 0 : Spans.front().first;
      if (!Spans.empty() && Seg.contains(A)) {
        Seg.Bytes[A - Seg.VAddr] ^= 0x01;
        Done = true;
        break;
      }
    }
    if (Done) {
      std::vector<CorpusItem> One;
      One.push_back({VictimItem.Name, Patched, VictimItem.Library});
      PassResult Inc = runPass(One, Dir);
      IncSeconds = Inc.Seconds;
      IncStats = Inc.Stats;
      // Only the patched body may miss; its siblings must still hit.
      IncOK = IncStats.Misses >= 1 && IncStats.Hits >= 1;
    }
  }
  if (!IncOK)
    std::fprintf(stderr, "INCREMENTAL VIOLATION: patching one function must "
                         "miss it and hit the rest\n");

  double Speedup = Warm.Seconds > 0 ? Cold.Seconds / Warm.Seconds : 0;
  bool SpeedOK = Smoke || Speedup >= 3.0;

  std::printf("%-12s %9s %8s %8s %8s %10s\n", "phase", "seconds", "hits",
              "misses", "stored", "validated");
  auto Row = [](const char *Name, double Secs, const store::CacheStats &S) {
    std::printf("%-12s %9.3f %8llu %8llu %8llu %10llu\n", Name, Secs,
                static_cast<unsigned long long>(S.Hits),
                static_cast<unsigned long long>(S.Misses),
                static_cast<unsigned long long>(S.Stored),
                static_cast<unsigned long long>(S.Validated));
  };
  Row("cold", Cold.Seconds, Cold.Stats);
  Row("warm", Warm.Seconds, Warm.Stats);
  Row("incremental", IncSeconds, IncStats);

  std::printf("\nwarm all-hit + revalidated -> %s\n",
              WarmAllHit ? "OK" : "VIOLATED");
  std::printf("warm report bytes == cold -> %s\n",
              WarmIdentical ? "OK" : "VIOLATED");
  std::printf("incremental single-function miss -> %s\n",
              IncOK ? "OK" : "VIOLATED");
  std::printf("speedup warm vs cold: %.2fx%s\n", Speedup,
              Smoke ? " (not gated in smoke mode)" : "");
  if (!SpeedOK)
    std::printf("speedup -> VIOLATED (gate: >= 3.00x)\n");

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 2;
  }
  char Buf[64];
  Out << "{\n  \"bench\": \"incremental_cache\",\n";
  Out << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n";
  Out << "  \"corpus_binaries\": " << Corpus.size() << ",\n";
  Out << "  \"functions_stored\": " << Cold.Stats.Stored << ",\n";
  std::snprintf(Buf, sizeof(Buf), "%.4f", Cold.Seconds);
  Out << "  \"cold_seconds\": " << Buf << ",\n";
  std::snprintf(Buf, sizeof(Buf), "%.4f", Warm.Seconds);
  Out << "  \"warm_seconds\": " << Buf << ",\n";
  std::snprintf(Buf, sizeof(Buf), "%.4f", IncSeconds);
  Out << "  \"incremental_seconds\": " << Buf << ",\n";
  std::snprintf(Buf, sizeof(Buf), "%.3f", Speedup);
  Out << "  \"speedup_warm_vs_cold\": " << Buf << ",\n";
  Out << "  \"warm_hits\": " << Warm.Stats.Hits << ",\n";
  Out << "  \"warm_validated\": " << Warm.Stats.Validated << ",\n";
  Out << "  \"warm_report_identical\": " << (WarmIdentical ? "true" : "false")
      << ",\n";
  Out << "  \"incremental_hits\": " << IncStats.Hits << ",\n";
  Out << "  \"incremental_misses\": " << IncStats.Misses << "\n}\n";
  std::printf("wrote %s\n", OutPath.c_str());

  return WarmAllHit && WarmIdentical && IncOK && SpeedOK ? 0 : 1;
}
