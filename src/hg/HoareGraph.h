//===- HoareGraph.h - Hoare Graphs (Definition 3.2) ------------*- C++ -*-===//
//
// A Hoare Graph ⟨Σ, σI, →Σ⟩: vertices are symbolic states ⟨P, M⟩ keyed by
// instruction address (plus the §4 control-immediates exception), edges are
// labeled with disassembled instructions. Every edge is one-step inductive:
// the source vertex's state is strong enough to prove the edge's targets —
// which is exactly what the Step-2 checker (export/HoareChecker.h)
// re-verifies independently.
//
// The edge list keeps insertion order (reports, exports and the store
// write it in that order) and is paired with an out-edge index — source
// vertex -> positions in the list — so the duplicate check in addEdge,
// Step 2's per-successor edge lookups and the may-return walk each cost
// the source's out-degree instead of a scan of every edge. Both are private
// and change together: addEdge and clearEdges are the only writers.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_HG_HOAREGRAPH_H
#define HGLIFT_HG_HOAREGRAPH_H

#include "semantics/SymExec.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace hglift::hg {

/// Compatibility key (Definition 4.3 plus the §4 exception): states are
/// only joinable when their instruction pointers agree *and* their
/// control-relevant immediates (text pointers in registers or memory
/// clauses, jump-table reads) agree.
struct VertexKey {
  uint64_t Rip = 0;
  uint64_t CtrlHash = 0;

  auto operator<=>(const VertexKey &O) const = default;
};

struct VertexKeyHash {
  size_t operator()(const VertexKey &K) const {
    uint64_t H = K.Rip * 0x9e3779b97f4a7c15ULL ^ K.CtrlHash;
    return static_cast<size_t>(H ^ (H >> 29));
  }
};

/// Synthetic target addresses for non-address edge targets.
constexpr uint64_t RetTargetRip = ~uint64_t(0);       ///< function returned
constexpr uint64_t UnresolvedTargetRip = ~uint64_t(1); ///< annotated stop

struct Vertex {
  VertexKey Key;
  sem::SymState State;
  x86::Instr Instr;      ///< decoded instruction at Key.Rip (once explored)
  bool Explored = false;
  unsigned JoinCount = 0;
};

struct Edge {
  VertexKey From;
  VertexKey To; ///< Rip == RetTargetRip / UnresolvedTargetRip for specials
  x86::Instr Instr;
  sem::CtrlKind Kind = sem::CtrlKind::Fall;
  uint64_t CalleeAddr = 0; ///< for CallInternal edges
  /// Non-zero when the edge came from a VSA table resolution: the table's
  /// first-entry address (DotExport provenance, docs/VSA.md).
  uint64_t ViaTable = 0;

  auto operator<=>(const Edge &O) const {
    if (auto C = From <=> O.From; C != 0)
      return C;
    if (auto C = To <=> O.To; C != 0)
      return C;
    if (auto C = Kind <=> O.Kind; C != 0)
      return C;
    if (auto C = CalleeAddr <=> O.CalleeAddr; C != 0)
      return C;
    return ViaTable <=> O.ViaTable;
  }
  bool operator==(const Edge &O) const {
    return From == O.From && To == O.To && Kind == O.Kind &&
           CalleeAddr == O.CalleeAddr && ViaTable == O.ViaTable;
  }
};

class HoareGraph {
public:
  std::map<VertexKey, Vertex> Vertices;
  VertexKey Initial;

  /// The out-edges of one vertex, in insertion order.
  class OutEdges {
  public:
    struct iterator {
      const Edge *Base;
      const uint32_t *Pos;
      const Edge &operator*() const { return Base[*Pos]; }
      iterator &operator++() {
        ++Pos;
        return *this;
      }
      bool operator==(const iterator &O) const { return Pos == O.Pos; }
    };
    iterator begin() const { return {Base, First}; }
    iterator end() const { return {Base, Last}; }

  private:
    friend class HoareGraph;
    OutEdges(const Edge *Base, const uint32_t *First, const uint32_t *Last)
        : Base(Base), First(First), Last(Last) {}
    const Edge *Base;
    const uint32_t *First, *Last;
  };

  Vertex *find(const VertexKey &K) {
    auto It = Vertices.find(K);
    return It == Vertices.end() ? nullptr : &It->second;
  }
  const Vertex *find(const VertexKey &K) const {
    auto It = Vertices.find(K);
    return It == Vertices.end() ? nullptr : &It->second;
  }

  /// Every edge, in insertion order.
  const std::vector<Edge> &edges() const { return Edges; }

  /// Append E unless an equal edge is already present; returns whether E
  /// was added.
  bool addEdge(const Edge &E);
  void clearEdges();

  OutEdges outEdges(const VertexKey &From) const;

  /// Distinct instruction addresses with an explored vertex.
  std::set<uint64_t> instructionAddrs() const {
    std::set<uint64_t> S;
    for (const auto &[K, V] : Vertices)
      if (V.Explored)
        S.insert(K.Rip);
    return S;
  }

  size_t numStates() const { return Vertices.size(); }

  /// Edges whose target lands strictly inside another decoded instruction
  /// (overlapping instructions — the §2 "weird" edges).
  std::vector<Edge> weirdEdges() const;

private:
  std::vector<Edge> Edges;
  /// Source vertex -> positions of its edges in Edges, ascending.
  std::unordered_map<VertexKey, std::vector<uint32_t>, VertexKeyHash> Out;
};

} // namespace hglift::hg

#endif // HGLIFT_HG_HOAREGRAPH_H
