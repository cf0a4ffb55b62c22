//===- weird_edge.cpp - The §2 / Figure 1 example -------------------------===//
//
// Reproduces the paper's running example: a function that reads a jump
// table and then branches through a pointer that may alias a second
// pointer. Under aliasing, an immediate planted by the second store sends
// control *into the middle* of the first instruction, whose 0xc3 byte is a
// hidden ret — a ROP gadget. An overapproximative lifting must contain
// that edge; this example shows that ours does, and then runs the concrete
// emulator to prove the path is real.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "driver/Report.h"
#include "hg/Lifter.h"
#include "semantics/Machine.h"
#include "support/Format.h"

#include <iostream>

using namespace hglift;

int main() {
  auto BB = corpus::weirdEdgeBinary();
  if (!BB) {
    std::cerr << "corpus build failed\n";
    return 1;
  }

  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  driver::printBinaryReport(std::cout, R);

  std::cout << "\n--- weird edges in the Hoare Graph ---\n";
  uint64_t WeirdTarget = 0;
  for (const hg::FunctionResult &F : R.Functions)
    for (const hg::Edge &E : F.Graph.weirdEdges()) {
      std::cout << "  " << hexStr(E.From.Rip) << " --(" << E.Instr.str()
                << ")--> " << hexStr(E.To.Rip)
                << "   <- lands inside another instruction\n";
      WeirdTarget = E.To.Rip;
    }
  if (!WeirdTarget) {
    std::cerr << "expected a weird edge!\n";
    return 1;
  }

  // Find f (the call target of _start) and run it concretely, twice.
  sem::Machine Probe(BB->Img);
  Probe.setupCall(BB->Img.Entry);
  uint64_t F = 0;
  for (int I = 0; I < 10 && F == 0; ++I) {
    size_t Avail;
    const uint8_t *Bytes = BB->Img.bytesAt(Probe.Rip, Avail);
    x86::Instr In = x86::decodeInstr(Bytes, Avail, Probe.Rip);
    bool WasCall = In.isCall();
    if (Probe.step() != sem::Machine::Status::Running)
      break;
    if (WasCall)
      F = Probe.Rip;
  }

  std::cout << "\n--- concrete run, pointers separate (rsi != rdx) ---\n";
  {
    sem::Machine M(BB->Img);
    M.setupCall(F);
    M.setReg(x86::Reg::RDI, 3);
    M.setReg(x86::Reg::RSI, 0x700000);
    M.setReg(x86::Reg::RDX, 0x700100);
    auto St = M.run(1000);
    std::cout << "  status: " << (St == sem::Machine::Status::Returned
                                      ? "returned normally"
                                      : "?")
              << ", " << M.trace().size() << " instructions\n";
  }

  std::cout << "--- concrete run, pointers aliasing (rsi == rdx) ---\n";
  {
    sem::Machine M(BB->Img);
    M.setupCall(F);
    M.setReg(x86::Reg::RDI, 3);
    M.setReg(x86::Reg::RSI, 0x700000);
    M.setReg(x86::Reg::RDX, 0x700000);
    auto St = M.run(1000);
    bool SawRop = false;
    for (uint64_t A : M.trace())
      SawRop |= A == WeirdTarget;
    std::cout << "  status: "
              << (St == sem::Machine::Status::Returned ? "returned" : "?")
              << ", hidden ret at " << hexStr(WeirdTarget)
              << (SawRop ? " WAS EXECUTED (ROP gadget is real)"
                         : " was not executed")
              << "\n";
    if (!SawRop)
      return 1;
  }

  return 0;
}
