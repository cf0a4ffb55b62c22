//===- bench_table1_xen.cpp - Reproduce Table 1 ---------------------------===//
//
// Regenerates the paper's Table 1 ("Xen Case Study Statistics Summary") on
// the synthetic Xen-shaped corpus (DESIGN.md §4): the same eight directory
// rows, the same outcome mix per row (scaled for the library rows), and
// the same columns:
//
//   row | N = w + x + y + z | Instrs | Symbolic States | A | B | C | Time
//
// where w = lifted, x = unprovable return address, y = concurrency,
// z = timeout; A = resolved indirections, B = unresolved jumps,
// C = unresolved calls. The paper's own numbers are printed beneath each
// row for shape comparison: who lifts, what drives each annotation
// column, and states ≈ instructions.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "corpus/Suites.h"
#include "hg/Lifter.h"
#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

using namespace hglift;

namespace {

struct RowStats {
  unsigned Lifted = 0, Unprovable = 0, Concurrency = 0, Timeout = 0;
  size_t Instrs = 0, States = 0;
  unsigned A = 0, B = 0, C = 0;
  double Seconds = 0;

  void add(const hg::BinaryResult &R) {
    switch (R.Outcome) {
    case hg::LiftOutcome::Lifted:
      ++Lifted;
      break;
    case hg::LiftOutcome::UnprovableReturn:
      ++Unprovable;
      break;
    case hg::LiftOutcome::Concurrency:
      ++Concurrency;
      break;
    case hg::LiftOutcome::Timeout:
      ++Timeout;
      break;
    }
    // Only successfully lifted units contribute instruction/state counts
    // (a rejected binary produces no HG).
    if (R.Outcome == hg::LiftOutcome::Lifted) {
      Instrs += R.totalInstructions();
      States += R.totalStates();
      A += R.totalA();
      B += R.totalB();
      C += R.totalC();
    }
    Seconds += R.Seconds;
  }
  /// Per-function accounting for library rows.
  void addFunction(const hg::FunctionResult &F) {
    switch (F.Outcome) {
    case hg::LiftOutcome::Lifted:
      ++Lifted;
      break;
    case hg::LiftOutcome::UnprovableReturn:
      ++Unprovable;
      break;
    case hg::LiftOutcome::Concurrency:
      ++Concurrency;
      break;
    case hg::LiftOutcome::Timeout:
      ++Timeout;
      break;
    }
    if (F.Outcome == hg::LiftOutcome::Lifted) {
      Instrs += F.numInstructions();
      States += F.Graph.numStates();
      A += F.ResolvedIndirections;
      B += F.UnresolvedJumps;
      C += F.UnresolvedCalls;
    }
    Seconds += F.Stats.Seconds;
  }
};

void printRow(const char *Tag, const char *Dir, unsigned W, unsigned X,
              unsigned Y, unsigned Z, size_t Instrs, size_t States,
              unsigned A, unsigned B, unsigned C, double Secs) {
  std::printf("%-7s %-20s %4u = %4u +%3u +%3u +%2u  %9s %9s %6u %5u %5u  %s\n",
              Tag, Dir, W + X + Y + Z, W, X, Y, Z,
              groupedStr(Instrs).c_str(), groupedStr(States).c_str(), A, B,
              C, hmsStr(Secs).c_str());
}

} // namespace

int main(int argc, char **argv) {
  corpus::SuiteOptions Opts;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--scale") && I + 1 < argc)
      Opts.LibraryScale = static_cast<unsigned>(std::atoi(argv[++I]));

  std::printf("Table 1: Xen Case Study Statistics Summary (synthetic corpus, "
              "library rows scaled 1/%u)\n\n",
              Opts.LibraryScale);
  std::printf("%-7s %-20s %27s  %9s %9s %6s %5s %5s  %s\n", "", "Directory",
              "N = w + x + y + z", "Instrs", "States", "A", "B", "C",
              "Time");

  auto Rows = corpus::buildXenSuite(Opts);

  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 15.0;

  RowStats BinTotal, LibTotal;
  corpus::SuiteRow::Mix BinPaper, LibPaper;
  size_t PaperBinInstrs[4] = {6751, 2433, 82, 8858};
  size_t PaperBinStates[4] = {6829, 2468, 87, 9178};
  size_t PaperLibInstrs[4] = {353433, 17184, 379, 10651};
  size_t PaperLibStates[4] = {362635, 17683, 407, 10799};
  unsigned PaperA[8] = {21, 8, 1, 26, 1, 0, 0, 0};
  unsigned PaperB[8] = {19, 3, 0, 4, 244, 0, 0, 0};
  unsigned PaperC[8] = {0, 3, 0, 8, 600, 27, 3, 90};
  const char *PaperTime[8] = {"0:15:54", "0:01:17", "0:00:10", "0:18:39",
                              "15:28:17", "1:58:36", "0:00:06", "0:08:43"};

  unsigned RowIdx = 0;
  for (corpus::SuiteRow &Row : Rows) {
    RowStats S;
    for (const corpus::BuiltBinary &BB : Row.Binaries) {
      hg::Lifter L(BB.Img, Cfg);
      if (Row.IsLibrary && !BB.Img.Functions.empty()) {
        hg::BinaryResult R = L.liftLibrary();
        for (const hg::FunctionResult &F : R.Functions) {
          // Only exported roots count as units; internal callees fold in.
          bool IsRoot = false;
          for (const elf::Symbol &Sym : BB.Img.Functions)
            IsRoot |= Sym.Addr == F.Entry;
          if (IsRoot)
            S.addFunction(F);
        }
      } else {
        S.add(L.liftBinary());
      }
    }

    printRow("ours", Row.Directory.c_str(), S.Lifted, S.Unprovable,
             S.Concurrency, S.Timeout, S.Instrs, S.States, S.A, S.B, S.C,
             S.Seconds);
    size_t PI = Row.IsLibrary ? PaperLibInstrs[RowIdx - 4]
                              : PaperBinInstrs[RowIdx];
    size_t PS = Row.IsLibrary ? PaperLibStates[RowIdx - 4]
                              : PaperBinStates[RowIdx];
    printRow("paper", Row.Directory.c_str(), Row.Paper.Lifted,
             Row.Paper.Unprovable, Row.Paper.Concurrency, Row.Paper.Timeout,
             PI, PS, PaperA[RowIdx], PaperB[RowIdx], PaperC[RowIdx], 0);
    std::printf("%-7s %79s paper time %s\n\n", "", "", PaperTime[RowIdx]);

    (Row.IsLibrary ? LibTotal : BinTotal).Lifted += S.Lifted;
    (Row.IsLibrary ? LibTotal : BinTotal).Unprovable += S.Unprovable;
    (Row.IsLibrary ? LibTotal : BinTotal).Concurrency += S.Concurrency;
    (Row.IsLibrary ? LibTotal : BinTotal).Timeout += S.Timeout;
    (Row.IsLibrary ? LibTotal : BinTotal).Instrs += S.Instrs;
    (Row.IsLibrary ? LibTotal : BinTotal).States += S.States;
    (Row.IsLibrary ? LibTotal : BinTotal).A += S.A;
    (Row.IsLibrary ? LibTotal : BinTotal).B += S.B;
    (Row.IsLibrary ? LibTotal : BinTotal).C += S.C;
    (Row.IsLibrary ? LibTotal : BinTotal).Seconds += S.Seconds;
    (Row.IsLibrary ? LibPaper : BinPaper).Lifted += Row.Paper.Lifted;
    ++RowIdx;
  }

  std::printf("--- totals ---\n");
  printRow("ours", "binaries", BinTotal.Lifted, BinTotal.Unprovable,
           BinTotal.Concurrency, BinTotal.Timeout, BinTotal.Instrs,
           BinTotal.States, BinTotal.A, BinTotal.B, BinTotal.C,
           BinTotal.Seconds);
  std::printf("%-7s %-20s paper: 63 = 45 + 3 + 13 + 1, 18 124 instrs, "
              "18 562 states, A=56 B=26 C=11, 0:35:59\n",
              "paper", "binaries");
  printRow("ours", "library functions", LibTotal.Lifted, LibTotal.Unprovable,
           LibTotal.Concurrency, LibTotal.Timeout, LibTotal.Instrs,
           LibTotal.States, LibTotal.A, LibTotal.B, LibTotal.C,
           LibTotal.Seconds);
  std::printf("%-7s %-20s paper: 2151 = 2115 + 32 + 0 + 4, 381 647 instrs, "
              "391 524 states, A=1 B=244 C=720, 17:35:42\n",
              "paper", "library functions");

  // Shape checks the harness asserts (who wins / what drives columns).
  bool ShapeOK = true;
  ShapeOK &= BinTotal.Lifted > 0 && LibTotal.Lifted > 0;
  ShapeOK &= LibTotal.States >= LibTotal.Instrs; // states ≈ instrs, ≥
  double StateRatio =
      static_cast<double>(LibTotal.States) /
      static_cast<double>(LibTotal.Instrs ? LibTotal.Instrs : 1);
  ShapeOK &= StateRatio < 1.5; // "close to the number of instructions"
  double LiftRate = static_cast<double>(LibTotal.Lifted) /
                    (LibTotal.Lifted + LibTotal.Unprovable +
                     LibTotal.Concurrency + LibTotal.Timeout);
  ShapeOK &= LiftRate > 0.9; // paper: 98%
  std::printf("\nshape: states/instrs = %.3f (paper 1.026), library lift "
              "rate = %.1f%% (paper 98%%) -> %s\n",
              StateRatio, 100.0 * LiftRate, ShapeOK ? "OK" : "MISMATCH");

  // --- VSA gate: on the jump-table corpus, the value-set analysis must
  // strictly move mass out of the unresolved columns (B+C, vs --no-vsa)
  // into column A, and its reports must stay byte-identical across
  // thread counts (docs/VSA.md).
  unsigned OnA = 0, OnBC = 0, OffA = 0, OffBC = 0;
  bool VsaOK = true;
  for (auto *Builder : {corpus::offsetTableBinary, corpus::callbackTableBinary,
                        corpus::maskedTableBinary,
                        corpus::widenedGuardTableBinary}) {
    auto BB = Builder();
    if (!BB) {
      VsaOK = false;
      continue;
    }
    for (bool Vsa : {true, false}) {
      hglift::Options O;
      O.Lift.Sym.Vsa = Vsa;
      hglift::Session S(BB->Img, O);
      const hg::BinaryResult &R = S.lift();
      (Vsa ? OnA : OffA) += R.totalA();
      (Vsa ? OnBC : OffBC) += R.totalB() + R.totalC();
    }
    std::string Rep[2];
    for (unsigned T = 1; T <= 2; ++T) {
      hglift::Options O;
      O.Lift.Threads = T;
      hglift::Session S(BB->Img, O);
      S.lift();
      std::ostringstream OS;
      S.writeReportJson(OS);
      Rep[T - 1] = OS.str();
    }
    VsaOK &= !Rep[0].empty() && Rep[0] == Rep[1];
  }
  VsaOK &= OnA > OffA;   // column A strictly up with VSA on
  VsaOK &= OnBC < OffBC; // B+C strictly down with VSA on
  std::printf("vsa: A %u -> %u, B+C %u -> %u (--no-vsa -> default), "
              "reports thread-identical -> %s\n",
              OffA, OnA, OffBC, OnBC, VsaOK ? "OK" : "MISMATCH");
  return (ShapeOK && VsaOK) ? 0 : 1;
}
