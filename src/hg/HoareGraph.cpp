#include "hg/HoareGraph.h"

#include <algorithm>

namespace hglift::hg {

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
