//===- Reducer.h - Delta-debugging reducer for failing binaries -*- C++ -*-===//
//
// Shrinks a binary that exhibits a pipeline failure (Step-2 check failure
// or oracle violation) to a minimal reproducer. The reduction atom is one
// instruction of the clean lift; removal is NOP-patching its bytes in the
// ELF image, which keeps every address stable (jumps, tables and function
// entries are untouched, so the failure's address context survives the
// shrink). Hierarchical greedy delta debugging: whole functions first,
// then halving chunks of the surviving instructions, then single
// instructions to a fixpoint, re-running the caller's failure predicate
// at every step. All decisions are deterministic.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_FUZZ_REDUCER_H
#define HGLIFT_FUZZ_REDUCER_H

#include "elf/Binary.h"
#include "hg/Lifter.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace hglift::fuzz {

/// Re-runs the failing pipeline on candidate ELF bytes; true iff the
/// failure still reproduces. (A candidate that no longer parses or lifts
/// should return false — the reducer then keeps the instructions.)
using FailurePredicate = std::function<bool(const std::vector<uint8_t> &)>;

struct ReduceResult {
  std::vector<uint8_t> Bytes;   ///< reduced ELF (failure still reproduces)
  size_t PredicateCalls = 0;    ///< reducer steps (pipeline re-runs)
  size_t FunctionsLeft = 0;     ///< functions with >= 1 surviving instruction
  size_t InstructionsLeft = 0;  ///< surviving (un-NOPped) instructions
  bool Reproduced = false;      ///< the unreduced input failed at all
  bool Converged = false;       ///< single-instruction fixpoint reached
};

/// The reduction atoms of one binary: every explored, decoded instruction
/// of its clean lift, deduplicated by address (functions reached both as
/// roots and as callees would otherwise double-count), in address order.
/// Collect them once per binary; every reduction over it reuses them.
struct ReductionAtoms {
  struct Unit {
    uint64_t Addr;
    uint8_t Len;
    uint32_t Func; ///< index into the clean lift's Functions
  };
  std::vector<Unit> Units;
  size_t NumFunctions = 0; ///< the clean lift's Functions.size()
};

/// CleanLift must be the unmutated lift of the bytes being reduced.
ReductionAtoms reductionAtoms(const hg::BinaryResult &CleanLift);

/// Reduce ElfBytes over the atoms of its clean lift. The vaddr ->
/// file-offset mapping is derived from the ELF program headers in
/// ElfBytes itself. MaxPredicateCalls bounds the work; when the budget
/// runs out the best reduction so far is returned with Converged = false.
ReduceResult reduceBinary(const std::vector<uint8_t> &ElfBytes,
                          const ReductionAtoms &Atoms,
                          const FailurePredicate &Fails,
                          size_t MaxPredicateCalls = 400);

} // namespace hglift::fuzz

#endif // HGLIFT_FUZZ_REDUCER_H
