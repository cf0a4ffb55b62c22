//===- quickstart.cpp - Minimal end-to-end use of the public API ---------===//
//
// Builds a small ELF binary, writes it to disk (so you can inspect it with
// readelf/objdump), lifts it to a Hoare Graph, and prints the graph: the
// smallest complete tour of the library.
//
//   $ ./examples/quickstart [output.elf]
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "driver/Report.h"
#include "elf/ElfReader.h"
#include "hg/Lifter.h"

#include <fstream>
#include <iostream>

using namespace hglift;

int main(int argc, char **argv) {
  // 1. Synthesize a binary (or bring your own ELF64 file).
  auto BB = corpus::straightlineBinary();
  if (!BB) {
    std::cerr << "corpus build failed\n";
    return 1;
  }

  std::string Path = argc > 1 ? argv[1] : "/tmp/hglift_quickstart.elf";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(BB->ElfBytes.data()),
              static_cast<std::streamsize>(BB->ElfBytes.size()));
  }
  std::cout << "wrote " << Path << " (" << BB->ElfBytes.size()
            << " bytes)\n\n";

  // 2. Parse it back and lift it: Algorithm 1 from the entry point,
  //    following internal calls, each function context-free.
  auto Img = elf::readElfFile(Path);
  if (!Img) {
    std::cerr << "ELF parse failed\n";
    return 1;
  }
  hg::Lifter L(*Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();

  // 3. Inspect the result: outcome, statistics, and the Hoare Graph with
  //    one invariant per symbolic state.
  driver::printBinaryReport(std::cout, R);
  std::cout << "\n";
  for (const hg::FunctionResult &F : R.Functions)
    driver::printHoareGraph(std::cout, F);

  return R.Outcome == hg::LiftOutcome::Lifted ? 0 : 1;
}
