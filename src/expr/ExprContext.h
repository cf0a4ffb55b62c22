//===- ExprContext.h - Interning and smart constructors --------*- C++ -*-===//
//
// Owns all Expr nodes. The mk* factories canonicalize and simplify eagerly:
// constant folding, arithmetic identities, and a linear normal form for
// addresses (nested Add/Sub with constants are flattened so that the
// relation solver sees `base + k` shapes). All simplifications are equations
// valid for two's-complement bit-vectors; the property tests check each one
// against concrete 64-bit evaluation on random valuations.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_EXPR_EXPRCONTEXT_H
#define HGLIFT_EXPR_EXPRCONTEXT_H

#include "expr/Expr.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hglift::expr {

class ExprContext {
public:
  ExprContext();
  ExprContext(const ExprContext &) = delete;
  ExprContext &operator=(const ExprContext &) = delete;

  /// Cap on treeSize() beyond which mkOp gives up simplifying and the
  /// semantics layer will substitute a fresh variable (the paper's
  /// implementation similarly bounds expression growth).
  static constexpr uint32_t MaxTreeSize = 512;

  const Expr *mkConst(uint64_t V, unsigned Width = 64);
  const Expr *mkTrue() { return mkConst(1, 1); }
  const Expr *mkFalse() { return mkConst(0, 1); }

  const Expr *mkVar(VarClass Cls, const std::string &Name, unsigned Width = 64,
                    uint64_t Aux = 0);
  /// A brand-new Fresh variable named Hint#N, N the next counter value
  /// that names no known variable. Minted names live in Vars but not in
  /// VarByName, and their nodes not in Interned, until a lookup needs them
  /// (indexMinted); mkVar of a minted name still returns the minted node.
  const Expr *mkFresh(const std::string &Hint, unsigned Width = 64);

  const Expr *mkOp(Opcode Opc, std::vector<const Expr *> Ops, unsigned Width);
  const Expr *mkBin(Opcode Opc, const Expr *A, const Expr *B) {
    return mkOp(Opc, {A, B}, A->width());
  }
  const Expr *mkAdd(const Expr *A, const Expr *B) {
    return mkBin(Opcode::Add, A, B);
  }
  const Expr *mkSub(const Expr *A, const Expr *B) {
    return mkBin(Opcode::Sub, A, B);
  }
  const Expr *mkAddK(const Expr *A, int64_t K) {
    return mkAdd(A, mkConst(static_cast<uint64_t>(K), A->width()));
  }
  const Expr *mkZExt(const Expr *A, unsigned Width) {
    return mkOp(Opcode::ZExt, {A}, Width);
  }
  const Expr *mkSExt(const Expr *A, unsigned Width) {
    return mkOp(Opcode::SExt, {A}, Width);
  }
  const Expr *mkTrunc(const Expr *A, unsigned Width) {
    return mkOp(Opcode::Trunc, {A}, Width);
  }
  const Expr *mkIte(const Expr *C, const Expr *T, const Expr *E) {
    return mkOp(Opcode::Ite, {C, T, E}, T->width());
  }

  const Expr *mkDeref(const Expr *Addr, uint32_t SizeBytes);

  /// Intern an Op node exactly as given, bypassing foldOp. Deserialization
  /// uses this to rebuild stored expressions byte-for-byte: stored nodes are
  /// already fixed points of folding, but re-running the simplifier would
  /// make round-trip identity depend on it, and raw interning does not.
  const Expr *internOp(Opcode Opc, std::vector<const Expr *> Ops,
                       unsigned Width);

  /// Fresh-name counter access, so a deserialized context can resume the
  /// fresh-variable sequence where the producing context left off (warm
  /// Step-2 then allocates the same names a cold run would).
  uint64_t freshCounter() const { return FreshCounter; }
  void setFreshCounter(uint64_t C);

  const VarInfo &varInfo(uint32_t Id) const { return Vars[Id]; }
  size_t numVars() const { return Vars.size(); }

  /// Number of interned nodes (for statistics / leak checks in tests).
  size_t numExprs() const { return Nodes.size(); }

private:
  static uint64_t hashOf(const Expr &E);
  const Expr *intern(Expr &&Proto);
  const Expr *foldOp(Opcode Opc, const std::vector<const Expr *> &Ops,
                     unsigned Width);

  struct KeyHash {
    size_t operator()(const Expr *E) const { return E->hashValue(); }
  };
  struct KeyEq {
    bool operator()(const Expr *A, const Expr *B) const;
  };

  /// The (unhashed) node for variable Id.
  static Expr varProto(uint32_t Id, unsigned Width, VarClass Cls);
  /// Add the minted variables to VarByName and their nodes to Interned.
  void indexMinted();

  std::deque<Expr> Nodes;
  std::unordered_map<const Expr *, const Expr *, KeyHash, KeyEq> Interned;
  std::vector<VarInfo> Vars;
  std::unordered_map<std::string, uint32_t> VarByName;
  /// Nodes mkFresh made since the last indexMinted().
  std::vector<const Expr *> Minted;
  /// Some registered name could equal a candidate mkFresh mints: mkVar
  /// registered a name with a '#', or the counter was rewound.
  bool ProbeNames = false;
  uint64_t FreshCounter = 0;
};

/// Decompose E into a linear form: sum of (coefficient, atom) terms plus a
/// constant, where atoms are non-Add/Sub/Mul-by-const subexpressions. Used
/// pervasively by the relation solver: [rsp0 - 24 + 4*i] linearizes to
/// {(1, rsp0), (4, i)} + (-24).
struct LinearForm {
  std::vector<std::pair<int64_t, const Expr *>> Terms; // sorted by atom ptr
  int64_t Constant = 0;

  bool isConstant() const { return Terms.empty(); }
  /// True if both forms have identical term lists (difference is constant).
  bool sameBase(const LinearForm &O) const { return Terms == O.Terms; }
};

/// Linearize a 64-bit expression. Always succeeds (worst case: a single
/// term (1, E)).
LinearForm linearize(const Expr *E);

} // namespace hglift::expr

#endif // HGLIFT_EXPR_EXPRCONTEXT_H
