//===- jump_table_switch.cpp - Bounded indirect control flow --------------===//
//
// Shows the "bounded control flow" sanity property on a compiler-style
// switch: the lifter proves the jump-table index is bounded (from the
// cmp/ja guard), enumerates every table entry, and emits one edge per
// distinct target. Then contrasts it with a binary where the bound cannot
// be established (an unbounded stack write): lifting is refused.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "driver/Report.h"
#include "hg/Lifter.h"
#include "support/Format.h"

#include <iostream>
#include <set>

using namespace hglift;

int main() {
  std::cout << "=== switch over a jump table (12 cases) ===\n";
  auto BB = corpus::jumpTableBinary(12);
  if (!BB)
    return 1;
  hg::Lifter L(BB->Img, hg::LiftConfig());
  hg::BinaryResult R = L.liftBinary();
  driver::printBinaryReport(std::cout, R);

  // The indirect jmp's outgoing edges: one per read table value (§2).
  for (const hg::FunctionResult &F : R.Functions)
    for (const auto &[Key, V] : F.Graph.Vertices) {
      if (!V.Instr.isValid() || !V.Instr.isJump() || V.Instr.Ops[0].isImm())
        continue;
      std::set<uint64_t> Targets;
      for (const hg::Edge &E : F.Graph.edges())
        if (E.From == Key && E.To.Rip != hg::UnresolvedTargetRip)
          Targets.insert(E.To.Rip);
      std::cout << "\nindirect jump at " << hexStr(Key.Rip) << " ("
                << V.Instr.str() << ") has " << Targets.size()
                << " proven targets:\n  ";
      for (uint64_t T : Targets)
        std::cout << hexStr(T) << " ";
      std::cout << "\n";
    }

  std::cout << "\n=== the same property failing: unbounded stack index ===\n";
  auto Bad = corpus::overflowBinary();
  if (!Bad)
    return 1;
  hg::Lifter L2(Bad->Img, hg::LiftConfig());
  hg::BinaryResult R2 = L2.liftBinary();
  driver::printBinaryReport(std::cout, R2);
  std::cout << "\n(lifting refused: the write may clobber the return "
               "address, so no sound HG exists without annotations)\n";

  return R.Outcome == hg::LiftOutcome::Lifted &&
                 R2.Outcome != hg::LiftOutcome::Lifted
             ? 0
             : 1;
}
