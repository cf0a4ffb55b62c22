#include "export/DotExport.h"

#include "support/Format.h"

#include <algorithm>
#include <map>

namespace hglift::exporter {

using hg::Edge;
using hg::FunctionResult;
using hg::VertexKey;

namespace {

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\l";
      continue;
    }
    Out += C;
  }
  return Out;
}

void emitFunction(std::string &Out, const FunctionResult &F,
                  const DotOptions &Opts, const std::string &Prefix) {
  std::map<VertexKey, std::string> Name;
  unsigned N = 0;
  for (const auto &[Key, V] : F.Graph.Vertices)
    Name[Key] = Prefix + "n" + std::to_string(N++);

  // Weird targets for highlighting.
  std::vector<Edge> Weird = F.Graph.weirdEdges();
  auto IsWeird = [&](const Edge &E) {
    return std::find(Weird.begin(), Weird.end(), E) != Weird.end();
  };

  for (const auto &[Key, V] : F.Graph.Vertices) {
    std::string Label = hexStr(Key.Rip);
    if (V.Instr.isValid())
      Label += ": " + V.Instr.str();
    if (Opts.ShowInvariants) {
      std::string P = V.State.P.str(F.ctx());
      if (!P.empty())
        Label += "\n" + P;
    }
    Out += "  " + Name[Key] + " [shape=box,label=\"" + escape(Label) +
           "\"];\n";
  }
  Out += "  " + Prefix + "ret [shape=doublecircle,label=\"" +
         escape("S_" + hexStr(F.Entry)) + "\"];\n";
  bool HasUnres = false;
  for (const Edge &E : F.Graph.edges())
    HasUnres |= E.To.Rip == hg::UnresolvedTargetRip;
  if (HasUnres)
    Out += "  " + Prefix +
           "unres [shape=octagon,color=orange,label=\"unresolved\"];\n";

  for (const Edge &E : F.Graph.edges()) {
    std::string From =
        Name.count(E.From) ? Name[E.From] : Prefix + "missing";
    std::string To;
    if (E.To.Rip == hg::RetTargetRip)
      To = Prefix + "ret";
    else if (E.To.Rip == hg::UnresolvedTargetRip)
      To = Prefix + "unres";
    else if (Name.count(E.To))
      To = Name[E.To];
    else {
      // Joined-away target: point at any vertex with that address.
      for (const auto &[Key, V] : F.Graph.Vertices)
        if (Key.Rip == E.To.Rip) {
          To = Name[Key];
          break;
        }
      if (To.empty())
        continue;
    }
    Out += "  " + From + " -> " + To;
    if (IsWeird(E))
      Out += " [color=red,penwidth=2,label=\"weird\"]";
    else if (E.Kind == sem::CtrlKind::CallInternal) {
      // VSA-resolved call edges carry the table provenance in the label.
      std::string L = "call " + hexStr(E.CalleeAddr);
      if (E.ViaTable)
        L += " via jump-table@" + hexStr(E.ViaTable);
      Out += " [style=dashed,label=\"" + L + "\"]";
    } else if (E.Kind == sem::CtrlKind::CallExternal)
      Out += " [style=dashed,label=\"ext\"]";
    else if (E.ViaTable)
      Out += " [label=\"via jump-table@" + hexStr(E.ViaTable) + "\"]";
    Out += ";\n";
  }
}

} // namespace

std::string exportDot(const FunctionResult &F, const DotOptions &Opts) {
  std::string Out = "digraph hg_" + hexStr(F.Entry).substr(2) + " {\n";
  Out += "  rankdir=TB;\n  fontname=monospace;\n";
  emitFunction(Out, F, Opts, "");
  Out += "}\n";
  return Out;
}

std::string exportDotBinary(const hg::BinaryResult &B,
                            const DotOptions &Opts) {
  std::string Out = "digraph hg {\n  rankdir=TB;\n  fontname=monospace;\n";
  unsigned N = 0;
  for (const FunctionResult &F : B.Functions) {
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    std::string Prefix = "f" + std::to_string(N++) + "_";
    Out += "  subgraph cluster_" + Prefix + " {\n";
    Out += "    label=\"" + hexStr(F.Entry) + "\";\n";
    emitFunction(Out, F, Opts, Prefix);
    Out += "  }\n";
  }
  Out += "}\n";
  return Out;
}

} // namespace hglift::exporter
