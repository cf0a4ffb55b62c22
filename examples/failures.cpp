//===- failures.cpp - The §5.3 failure gallery -----------------------------===//
//
// Reproduces the paper's three "Examples of Failures":
//
//   1. ret2win:   a memset receives a pointer into the caller's frame; the
//                 lifter emits a MUST-PRESERVE proof obligation whose
//                 violation is exactly the ROP-emporium exploit;
//   2. stack probing: rax flows through an internal call and then moves
//                 rsp; the lifter cannot prove rsp restoration;
//   3. non-standard rsp restoration (the ssh shape): rsp is reloaded from
//                 memory; the report prints the offending symbolic value.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "driver/Report.h"
#include "hg/Lifter.h"

#include <iostream>

using namespace hglift;

namespace {

int show(const char *Title, std::optional<corpus::BuiltBinary> BB,
         bool ExpectLifted) {
  std::cout << "=== " << Title << " ===\n";
  if (!BB) {
    std::cerr << "corpus build failed\n";
    return 1;
  }
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  driver::printBinaryReport(std::cout, R);
  std::cout << "\n";
  return (R.Outcome == hg::LiftOutcome::Lifted) == ExpectLifted ? 0 : 1;
}

} // namespace

int main() {
  int RC = 0;
  // ret2win lifts *successfully* — but only under an explicit obligation
  // that memset preserves the frame; the exploit is its negation.
  RC |= show("ret2win (ROP emporium): obligation generated",
             corpus::ret2winBinary(), /*ExpectLifted=*/true);
  RC |= show("stack probing (macOS zip shape): verification error",
             corpus::stackProbeBinary(), /*ExpectLifted=*/false);
  RC |= show("non-standard rsp restoration (macOS ssh shape)",
             corpus::nonstandardRspBinary(), /*ExpectLifted=*/false);
  return RC;
}
