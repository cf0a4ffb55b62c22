//===- bench_population.cpp - Write the benchmark populations as ELF files -===//
//
// Writes, as files, the inputs perfbench's batch workloads lift in process,
// so that two hglift binaries can be run over them from the shell and their
// outputs compared byte for byte:
//
//   <dir>/p0/, <dir>/p1/   the Table 1 (Xen-shaped) + Table 2
//                          (CoreUtils-shaped) population at population
//                          seeds 0 and 1, 76 files each (paper_audit);
//   <dir>/large_fn/        the 96 single-function libraries of large_fn's
//                          population 0 (8 passes of 12);
//   <dir>/manifest.txt     one line per file: its path relative to <dir>,
//                          the vertex fuel the workload lifts it at, and
//                          `--library` when it is lifted as a library.
//
//   bench_population <dir>
//   while read F FUEL LIB; do
//     hglift check <dir>/$F $LIB --max-insns $FUEL --max-seconds 0 ...
//   done < <dir>/manifest.txt
//
// The seeds are derived exactly as perfbench/harness.cpp derives them
// (paperAuditInputs, largeFnInputs); the derivation is repeated here
// because perfbench/ is the benchmark's own package, which nothing in the
// tree builds against.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "corpus/Suites.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace hglift;

namespace {

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Seed 0 keeps the default; any other seed redraws it.
uint64_t derive(uint64_t Default, uint64_t Seed) {
  return Seed == 0 ? Default
                   : splitmix(Default ^ (Seed * 0x9e3779b97f4a7c15ULL));
}

struct Input {
  std::string Name;
  bool Library = false;
  std::vector<uint8_t> Bytes;
};

std::vector<Input> paperAuditInputs(uint64_t Seed) {
  std::vector<Input> Out;
  corpus::SuiteOptions SO;
  SO.Seed = derive(SO.Seed, Seed);
  for (corpus::SuiteRow &Row : corpus::buildXenSuite(SO))
    for (corpus::BuiltBinary &BB : Row.Binaries)
      Out.push_back({BB.Name, Row.IsLibrary && !BB.Img.Functions.empty(),
                     std::move(BB.ElfBytes)});
  for (corpus::Table2Entry &E :
       corpus::buildCoreutilsSuite(derive(0xc0de, Seed)))
    Out.push_back({E.Name, false, std::move(E.Binary.ElfBytes)});
  return Out;
}

/// One pass of large_fn: 12 single-function libraries, sizes stratified
/// over 800-3000 instructions (log scale), half of them with a saved rbx.
std::vector<Input> largeFnInputs(uint64_t Seed, unsigned Pass) {
  const unsigned N = 12;
  Rng R(splitmix(derive(0xf16, Seed) + Pass));
  std::vector<unsigned> WritePerm(N / 2);
  for (unsigned I = 0; I < N / 2; ++I)
    WritePerm[I] = I;
  for (unsigned I = N / 2 - 1; I > 0; --I)
    std::swap(WritePerm[I], WritePerm[R.below(I + 1)]);
  std::vector<Input> Out;
  unsigned Writers = 0;
  bool Flip = false;
  for (unsigned I = 0; I < N; ++I) {
    if (I % 2 == 0)
      Flip = R.below(2) == 0;
    bool SaveRbx = (I % 2 == 0) == Flip;
    corpus::GenOptions G;
    do
      G.Seed = R.next();
    while (Rng(G.Seed).chance(1, 2) != SaveRbx);
    G.NumFuncs = 1;
    double Frac = (I + static_cast<double>(R.below(1000)) / 1000.0) / N;
    G.TargetInstrs =
        static_cast<unsigned>(800.0 * std::pow(3000.0 / 800.0, Frac));
    G.ArgWritePct =
        SaveRbx ? 10 + (WritePerm[Writers] * 20 +
                        static_cast<unsigned>(R.below(20))) / (N / 2)
                : 10 + static_cast<unsigned>(R.below(20));
    Writers += SaveRbx;
    G.JumpTablePct = 25;
    G.ExternalPct = 30;
    G.Name = "large_fn_" + std::to_string(Pass) + "_" + std::to_string(I);
    if (std::optional<corpus::BuiltBinary> BB = corpus::randomLibrary(G))
      Out.push_back({G.Name, true, std::move(BB->ElfBytes)});
  }
  return Out;
}

/// Write Inputs under Dir/Sub as NNN_<name>.elf and add their manifest
/// lines. Returns false on an I/O error.
bool writeAll(const std::filesystem::path &Dir, const std::string &Sub,
              const std::vector<Input> &Inputs, unsigned Fuel,
              std::ofstream &Manifest) {
  std::error_code EC;
  std::filesystem::create_directories(Dir / Sub, EC);
  if (EC)
    return false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    std::string File = std::to_string(I);
    File.insert(0, 3 - std::min<size_t>(3, File.size()), '0');
    File += "_";
    for (char C : Inputs[I].Name)
      File += (C == '/' || C == ' ') ? '_' : C;
    File += ".elf";
    std::string Rel = Sub + "/" + File;
    std::ofstream Out(Dir / Rel, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Inputs[I].Bytes.data()),
              static_cast<std::streamsize>(Inputs[I].Bytes.size()));
    if (!Out)
      return false;
    Manifest << Rel << ' ' << Fuel << (Inputs[I].Library ? " --library" : "")
             << '\n';
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_population <dir>\n");
    return 2;
  }
  const std::filesystem::path Dir = argv[1];
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::ofstream Manifest(Dir / "manifest.txt");
  bool Ok = static_cast<bool>(Manifest);
  // paper_audit lifts at vertex fuel 4000, large_fn at 20000.
  for (uint64_t Pop : {0, 1})
    Ok = Ok && writeAll(Dir, "p" + std::to_string(Pop),
                        paperAuditInputs(Pop), 4000, Manifest);
  std::vector<Input> Large;
  for (unsigned Pass = 0; Pass < 8; ++Pass)
    for (Input &In : largeFnInputs(0, Pass))
      Large.push_back(std::move(In));
  Ok = Ok && writeAll(Dir, "large_fn", Large, 20000, Manifest);
  Manifest.flush();
  if (!Ok || !Manifest) {
    std::fprintf(stderr, "bench_population: cannot write under %s\n",
                 Dir.c_str());
    return 3;
  }
  std::printf("wrote the populations and manifest.txt under %s\n",
              Dir.c_str());
  return 0;
}
