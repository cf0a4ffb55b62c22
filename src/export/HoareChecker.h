//===- HoareChecker.h - Step 2: re-verify every Hoare triple ---*- C++ -*-===//
//
// The paper's Step 2 validates every inference of Step 1 in Isabelle/HOL:
// "each edge individually forms a Hoare triple, and thus the formal
// verification effort consists of proofs of thousands of mutually
// independent theorems (generally, one per disassembled instruction)".
//
// Isabelle is not available offline, so this checker is the executable
// substitute (DESIGN.md §4): for every explored vertex it re-runs the
// instruction semantics on the stored precondition — independently of
// Algorithm 1's worklist, joining and bookkeeping — and proves that each
// produced post-state is entailed by some target vertex's invariant
// (predicate entailment via Pred::leq, memory-model abstraction via
// MemModel::leq) with a corresponding edge present in the graph. What
// remains trusted is the instruction semantics and the entailment checker,
// exactly the trusted base of the paper's Isabelle step.
//
// Like the paper's "thousands of mutually independent theorems", the
// re-validation parallelizes: checkBinary() can fan functions out over a
// thread pool. Each task re-checks one function entirely inside that
// function's own LiftArena (its ExprContext, RelationSolver, and a
// task-local SymExec), so no interning table or solver cache is ever
// shared between concurrent tasks; results merge in function order, making
// the parallel check observably identical to the serial one.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_EXPORT_HOARECHECKER_H
#define HGLIFT_EXPORT_HOARECHECKER_H

#include "hg/Lifter.h"

namespace hglift::exporter {

struct CheckResult {
  size_t Theorems = 0; ///< one per (vertex, successor) proof obligation
  size_t Proven = 0;
  std::vector<std::string> Failures;
  /// One structured diagnostic per failure, with provenance: the edge, the
  /// instruction, and — when entailment failed — which postcondition
  /// clause was not entailed (ClauseId/ClauseText from Pred::leqExplain).
  /// Ordered like Failures: vertex order within a function, function order
  /// across the binary, for every thread count.
  std::vector<diag::Diagnostic> Diags;

  bool allProven() const { return Proven == Theorems; }
  void merge(const CheckResult &O) {
    Theorems += O.Theorems;
    Proven += O.Proven;
    Failures.insert(Failures.end(), O.Failures.begin(), O.Failures.end());
    Diags.insert(Diags.end(), O.Diags.begin(), O.Diags.end());
  }
};

/// Everything Step-2 needs from the outside world: the binary image the
/// instruction semantics reads (rodata for jump tables, PLT stubs) and the
/// semantics configuration. Deliberately NOT a Lifter — a cached
/// BinaryResult deserialized from the artifact store has no Lifter behind
/// it, and the checker must be able to validate it anyway.
struct CheckContext {
  const elf::BinaryImage &Img;
  sem::SymConfig Sym;
};

/// Re-verify every edge of one lifted function, inside its own arena.
CheckResult checkFunction(const CheckContext &C, const hg::FunctionResult &F);

/// Re-verify every function of a lifted binary. A store hit (Reproven
/// set) was already proven at lookup, so its theorems are counted, not
/// proven again. Threads: 1 = serial in the calling thread, 0 = hardware
/// concurrency, N = N workers; results are identical for every thread
/// count.
CheckResult checkBinary(const CheckContext &C, const hg::BinaryResult &B,
                        unsigned Threads = 1);

} // namespace hglift::exporter

#endif // HGLIFT_EXPORT_HOARECHECKER_H
