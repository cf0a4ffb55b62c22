//===- export_isabelle.cpp - Step 2: check + export -------------------------===//
//
// Lifts a multi-function binary, re-verifies every Hoare triple with the
// independent Step-2 checker (one theorem per edge, as in the paper's
// Isabelle/HOL validation), and writes the Isabelle theory file.
//
//   $ ./examples/export_isabelle [output.thy]
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "export/HoareChecker.h"
#include "export/IsabelleExport.h"

#include <fstream>
#include <iostream>

using namespace hglift;

int main(int argc, char **argv) {
  auto BB = corpus::callChainBinary();
  if (!BB)
    return 1;

  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  std::cout << "lifted " << R.Name << ": " << R.totalInstructions()
            << " instructions, " << R.totalStates() << " symbolic states\n";

  // Step 2: every edge is one independently provable theorem.
  const exporter::CheckResult &C = S.check();
  std::cout << "step 2: " << C.Proven << "/" << C.Theorems
            << " Hoare triples proven independently\n";
  for (const std::string &F : C.Failures)
    std::cout << "  FAILED: " << F << "\n";
  if (!C.allProven())
    return 1;

  exporter::IsabelleOptions Opts;
  Opts.TheoryName = "call_chain_hg";
  size_t Lemmas = 0;
  std::string Thy = exporter::exportBinary(R, Opts, &Lemmas);

  std::string Path = argc > 1 ? argv[1] : "/tmp/call_chain_hg.thy";
  std::ofstream(Path) << Thy;
  std::cout << "wrote " << Lemmas << " lemmas to " << Path << "\n\n";

  // Show the first ~30 lines of the theory.
  size_t Pos = 0;
  for (int Line = 0; Line < 30 && Pos != std::string::npos; ++Line) {
    size_t E = Thy.find('\n', Pos);
    std::cout << Thy.substr(Pos, E - Pos) << "\n";
    Pos = E == std::string::npos ? E : E + 1;
  }
  std::cout << "...\n";
  return 0;
}
