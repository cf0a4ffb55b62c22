//===- bench_table2_proofs.cpp - Reproduce Table 2 ------------------------===//
//
// Regenerates Table 2 ("Overview of binaries exported to Isabelle/HOL"):
// six CoreUtils-shaped binaries are lifted, every Hoare triple is
// re-verified by the independent Step-2 checker (the stand-in for the
// Isabelle proofs, DESIGN.md §4), and the Isabelle theory is emitted. The
// paper's claim to reproduce: *all* Hoare triples prove automatically, and
// there are no unresolved indirections.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Suites.h"
#include "export/HoareChecker.h"
#include "export/IsabelleExport.h"
#include "support/Format.h"

#include <cstdio>

using namespace hglift;

int main() {
  std::printf("Table 2: Binaries exported to Isabelle/HOL (synthetic "
              "CoreUtils corpus, sizes scaled 1/10)\n\n");
  std::printf("%-10s %12s %14s %14s %10s %10s %8s\n", "Binary", "#Instrs",
              "paper #Instrs", "#Indirections", "paper #Ind", "#Triples",
              "proven");

  auto Suite = corpus::buildCoreutilsSuite();

  hg::LiftConfig Cfg;
  Cfg.MaxVertices = 4000;
  Cfg.MaxSeconds = 30.0;

  size_t TotInstrs = 0, TotInd = 0, TotTriples = 0, TotProven = 0;
  bool AllLifted = true;
  for (corpus::Table2Entry &E : Suite) {
    Options O;
    O.Lift = Cfg;
    Session S(E.Binary.Img, O);
    const hg::BinaryResult &R = S.lift();
    AllLifted &= R.Outcome == hg::LiftOutcome::Lifted;

    const exporter::CheckResult &C = S.check();

    exporter::IsabelleOptions IOpts;
    IOpts.TheoryName = E.Name + "_hg";
    size_t Lemmas = 0;
    std::string Thy = exporter::exportBinary(R, IOpts, &Lemmas);
    static_cast<void>(Thy);

    std::printf("%-10s %12s %14s %14u %10u %10zu %7zu%s\n", E.Name.c_str(),
                groupedStr(R.totalInstructions()).c_str(),
                groupedStr(E.PaperInstrs).c_str(), R.totalA(),
                E.PaperIndirections, C.Theorems, C.Proven,
                C.allProven() ? "" : " *INCOMPLETE*");

    TotInstrs += R.totalInstructions();
    TotInd += R.totalA();
    TotTriples += C.Theorems;
    TotProven += C.Proven;
  }

  std::printf("%-10s %12s %14s %14s %10s %10zu %7zu\n", "Total",
              groupedStr(TotInstrs).c_str(), "16 078",
              groupedStr(TotInd).c_str(), "37", TotTriples, TotProven);

  bool ShapeOK = AllLifted && TotTriples > 0 && TotProven == TotTriples;
  std::printf("\nshape: all binaries lifted, %zu/%zu Hoare triples proven "
              "automatically (paper: all) -> %s\n",
              TotProven, TotTriples, ShapeOK ? "OK" : "MISMATCH");
  return ShapeOK ? 0 : 1;
}
