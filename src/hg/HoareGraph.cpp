#include "hg/HoareGraph.h"

#include <algorithm>

namespace hglift::hg {

bool HoareGraph::addEdge(const Edge &E) {
  std::vector<uint32_t> &Pos = Out[E.From];
  for (uint32_t I : Pos)
    if (Edges[I] == E)
      return false;
  Pos.push_back(static_cast<uint32_t>(Edges.size()));
  Edges.push_back(E);
  return true;
}

void HoareGraph::clearEdges() {
  Edges.clear();
  Out.clear();
}

HoareGraph::OutEdges HoareGraph::outEdges(const VertexKey &From) const {
  auto It = Out.find(From);
  if (It == Out.end())
    return OutEdges(Edges.data(), nullptr, nullptr);
  const std::vector<uint32_t> &Pos = It->second;
  return OutEdges(Edges.data(), Pos.data(), Pos.data() + Pos.size());
}

std::vector<Edge> HoareGraph::weirdEdges() const {
  // An edge is "weird" when its target address lies strictly inside the
  // byte range of some explored instruction: overlapping instructions,
  // the §2 jump-into-the-middle ROP shape.
  //
  // Spans sorted by start, with a running maximum of their ends: T lies
  // strictly inside some span iff the spans starting below T reach past
  // it, so each edge costs one binary search. A span of length <= 1 has no
  // interior, and one whose end wraps past 2^64 contains nothing either
  // (T < Addr + Length fails in modular arithmetic); both are left out.
  struct Span {
    uint64_t Start, End;
  };
  std::vector<Span> Spans;
  for (const auto &[K, V] : Vertices) {
    if (!V.Explored || !V.Instr.isValid())
      continue;
    uint64_t End = V.Instr.nextAddr();
    if (V.Instr.Length > 1 && End > V.Instr.Addr)
      Spans.push_back({V.Instr.Addr, End});
  }
  std::sort(Spans.begin(), Spans.end(),
            [](const Span &A, const Span &B) { return A.Start < B.Start; });
  for (size_t I = 1; I < Spans.size(); ++I)
    Spans[I].End = std::max(Spans[I].End, Spans[I - 1].End);

  std::vector<Edge> Out;
  for (const Edge &E : Edges) {
    uint64_t T = E.To.Rip;
    if (T == RetTargetRip || T == UnresolvedTargetRip)
      continue;
    auto Above = std::partition_point(
        Spans.begin(), Spans.end(), [T](const Span &S) { return S.Start < T; });
    if (Above != Spans.begin() && std::prev(Above)->End > T)
      Out.push_back(E);
  }
  return Out;
}

} // namespace hglift::hg
