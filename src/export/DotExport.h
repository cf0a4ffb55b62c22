//===- DotExport.h - Hoare Graphs as Graphviz dot ---------------*- C++ -*-===//
//
// Renders a function's Hoare Graph in Graphviz format (the Figure 1 view):
// one node per symbolic state, labelled with its instruction and —
// optionally — its invariant; weird edges (targets inside another
// instruction) are highlighted in red, annotated stops in orange.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_EXPORT_DOTEXPORT_H
#define HGLIFT_EXPORT_DOTEXPORT_H

#include "hg/Lifter.h"

#include <string>

namespace hglift::exporter {

struct DotOptions {
  /// Include the predicate text on each node (big graphs get unwieldy).
  bool ShowInvariants = false;
};

std::string exportDot(const hg::FunctionResult &F,
                      const DotOptions &Opts = DotOptions());

/// All functions of a binary in one digraph (clustered per function).
std::string exportDotBinary(const hg::BinaryResult &B,
                            const DotOptions &Opts = DotOptions());

} // namespace hglift::exporter

#endif // HGLIFT_EXPORT_DOTEXPORT_H
