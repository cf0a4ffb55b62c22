//===- IsabelleExport.h - Emit Isabelle/HOL theories -----------*- C++ -*-===//
//
// Renders a lifted function's Hoare Graph as an Isabelle/HOL theory file,
// the artifact format of the paper's Step 2: one definition per vertex
// invariant, one lemma (Hoare triple) per edge, discharged by the
// `htriple` proof method of the paper's symbolic-execution proof scripts.
// The theories reference the X86_Semantics session of the original
// artifact; they are emitted for export and inspection (Isabelle itself is
// not available in this environment — see DESIGN.md §4).
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_EXPORT_ISABELLEEXPORT_H
#define HGLIFT_EXPORT_ISABELLEEXPORT_H

#include "hg/Lifter.h"

#include <string>

namespace hglift::exporter {

struct IsabelleOptions {
  std::string TheoryName = "lifted_binary";
  /// Name of the proof method invoked per lemma.
  std::string ProofMethod = "htriple_solver";
};

/// Render one function's HG as a theory.
std::string exportFunction(const hg::FunctionResult &F,
                           const IsabelleOptions &Opts);

/// Render a whole binary (one theory; sections per function). Returns the
/// theory text and fills NumLemmas with the number of emitted Hoare-triple
/// lemmas.
std::string exportBinary(const hg::BinaryResult &B,
                         const IsabelleOptions &Opts,
                         size_t *NumLemmas = nullptr);

/// Translate a symbolic expression to an Isabelle/HOL term (64-bit word
/// operations from HOL-Library.Word).
std::string isabelleTerm(const expr::ExprContext &Ctx, const expr::Expr *E);

/// Render a predicate as a HOL state assertion.
std::string isabellePred(const expr::ExprContext &Ctx, const pred::Pred &P);

} // namespace hglift::exporter

#endif // HGLIFT_EXPORT_ISABELLEEXPORT_H
