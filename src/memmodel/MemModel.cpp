#include "memmodel/MemModel.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>

namespace hglift::mem {

using expr::Expr;
using expr::ExprContext;
using pred::Pred;
using smt::AllocClass;
using smt::RelationSolver;

void MemTree::collectRegions(std::vector<Region> &Out) const {
  Out.insert(Out.end(), Node.begin(), Node.end());
  for (const MemTree &C : Children)
    C.collectRegions(Out);
}

namespace {

struct InsCtx {
  const Pred &P;
  RelationSolver &Solver;
  UnknownPolicy Policy;
  const ExprContext *Ctx = nullptr; // only for assumption text
};

/// Tree-level relation (§3.2 extension of Definition 3.6 to trees).
MemRel relateTrees(const MemTree &T0, const MemTree &T1, InsCtx &I) {
  // Alias: some top regions of the two trees necessarily alias.
  for (const Region &R0 : T0.Node)
    for (const Region &R1 : T1.Node)
      if (I.Solver.relate(R0, R1, I.P) == MemRel::MustAlias)
        return MemRel::MustAlias;

  // Separation: all regions pairwise necessarily separate.
  std::vector<Region> All0, All1;
  T0.collectRegions(All0);
  T1.collectRegions(All1);
  bool AllSep = true;
  bool AnyPartial = false;
  for (const Region &R0 : All0)
    for (const Region &R1 : All1) {
      MemRel R = I.Solver.relate(R0, R1, I.P);
      if (R != MemRel::MustSep)
        AllSep = false;
      if (R == MemRel::MustPartial)
        AnyPartial = true;
    }
  if (AllSep)
    return MemRel::MustSep;

  // Enclosure on top nodes.
  for (const Region &R0 : T0.Node)
    for (const Region &R1 : T1.Node) {
      MemRel R = I.Solver.relate(R0, R1, I.P);
      if (R == MemRel::MustEnc01)
        return MemRel::MustEnc01;
      if (R == MemRel::MustEnc10)
        return MemRel::MustEnc10;
    }

  if (AnyPartial)
    return MemRel::MustPartial;
  return MemRel::Unknown;
}

struct ForestResult {
  std::vector<MemTree> Forest;
  std::vector<Region> Destroyed;
  std::vector<std::string> Assumptions;
};

std::vector<ForestResult> insTree(const MemTree &T0,
                                  std::span<const MemTree> Forest,
                                  InsCtx &I, unsigned Budget);

/// Head followed by a copy of Tail: an outcome's forest after the first
/// tree of the input was replaced.
std::vector<MemTree> consForest(MemTree Head, std::span<const MemTree> Tail) {
  std::vector<MemTree> Out;
  Out.reserve(1 + Tail.size());
  Out.push_back(std::move(Head));
  Out.insert(Out.end(), Tail.begin(), Tail.end());
  return Out;
}

/// Fold-insert every tree of Items into an (initially empty) forest,
/// producing all possible outcomes (used by the aliasing case of
/// Definition 3.7).
std::vector<ForestResult> foldIns(const std::vector<MemTree> &Items,
                                  InsCtx &I, unsigned Budget) {
  std::vector<ForestResult> Acc{ForestResult{}};
  for (const MemTree &T : Items) {
    std::vector<ForestResult> Next;
    for (const ForestResult &F : Acc) {
      for (ForestResult &R : insTree(T, F.Forest, I, Budget)) {
        R.Destroyed.insert(R.Destroyed.end(), F.Destroyed.begin(),
                           F.Destroyed.end());
        R.Assumptions.insert(R.Assumptions.end(), F.Assumptions.begin(),
                             F.Assumptions.end());
        Next.push_back(std::move(R));
        if (Next.size() >= Budget)
          break;
      }
      if (Next.size() >= Budget)
        break;
    }
    Acc = std::move(Next);
  }
  return Acc;
}

/// Handle "destroy T1 and keep inserting": removes T1 entirely, recording
/// its regions as destroyed.
std::vector<ForestResult> destroyCase(const MemTree &T0, const MemTree &T1,
                                      std::span<const MemTree> Rest,
                                      InsCtx &I, unsigned Budget) {
  std::vector<Region> Dead;
  T1.collectRegions(Dead);
  std::vector<ForestResult> Out = insTree(T0, Rest, I, Budget);
  for (ForestResult &R : Out)
    R.Destroyed.insert(R.Destroyed.end(), Dead.begin(), Dead.end());
  return Out;
}

std::vector<ForestResult> insTree(const MemTree &T0,
                                  std::span<const MemTree> Forest,
                                  InsCtx &I, unsigned Budget) {
  if (Forest.empty())
    return {ForestResult{{T0}, {}, {}}};

  const MemTree &T1 = Forest.front();
  std::span<const MemTree> Rest = Forest.subspan(1);

  MemRel Rel = relateTrees(T0, T1, I);

  auto aliasCase = [&]() {
    // insAL: merge the top nodes; re-insert all children into a fresh
    // sub-forest.
    std::vector<Region> Merged = T0.Node;
    for (const Region &R : T1.Node)
      if (std::find(Merged.begin(), Merged.end(), R) == Merged.end())
        Merged.push_back(R);
    std::vector<MemTree> Kids = T0.Children;
    Kids.insert(Kids.end(), T1.Children.begin(), T1.Children.end());
    std::vector<ForestResult> Out;
    for (ForestResult &F : foldIns(Kids, I, Budget))
      Out.push_back(
          ForestResult{consForest(MemTree{Merged, std::move(F.Forest)}, Rest),
                       std::move(F.Destroyed), std::move(F.Assumptions)});
    return Out;
  };

  auto sepCase = [&]() {
    std::vector<ForestResult> Out = insTree(T0, Rest, I, Budget);
    for (ForestResult &F : Out)
      F.Forest.insert(F.Forest.begin(), T1);
    return Out;
  };

  switch (Rel) {
  case MemRel::MustAlias:
    return aliasCase();

  case MemRel::MustSep:
    return sepCase();

  case MemRel::MustEnc01: {
    // insENC: T0 goes into T1's sub-forest.
    std::vector<ForestResult> Out;
    for (ForestResult &F : insTree(T0, T1.Children, I, Budget))
      Out.push_back(
          ForestResult{consForest(MemTree{T1.Node, std::move(F.Forest)}, Rest),
                       std::move(F.Destroyed), std::move(F.Assumptions)});
    return Out;
  }

  case MemRel::MustEnc10: {
    // insCON: T1 goes into T0's sub-forest; the combined tree is then
    // inserted into the rest of the forest.
    std::vector<ForestResult> Out;
    for (ForestResult &F1 : insTree(T1, T0.Children, I, Budget)) {
      MemTree NewT0{T0.Node, std::move(F1.Forest)};
      for (ForestResult &F2 : insTree(NewT0, Rest, I, Budget)) {
        F2.Destroyed.insert(F2.Destroyed.end(), F1.Destroyed.begin(),
                            F1.Destroyed.end());
        F2.Assumptions.insert(F2.Assumptions.end(), F1.Assumptions.begin(),
                              F1.Assumptions.end());
        Out.push_back(std::move(F2));
        if (Out.size() >= Budget)
          return Out;
      }
    }
    return Out;
  }

  case MemRel::MustPartial:
    return destroyCase(T0, T1, Rest, I, Budget);

  case MemRel::Unknown: {
    // Nondeterministic branching (§1): alias and separation are each
    // possible; enumerate both. Partial overlap is excluded only for
    // same-size single-region trees (pointer-typed accesses), recorded as
    // an assumption. Everything else falls back to destroy.
    bool Branchable = I.Policy == UnknownPolicy::BranchAliasOrSep &&
                      T0.Node.size() == 1 && T1.Node.size() == 1 &&
                      T0.Children.empty() &&
                      T0.Node[0].Size == T1.Node[0].Size;
    if (!Branchable || Budget < 2)
      return destroyCase(T0, T1, Rest, I, Budget);

    std::string Assumption;
    if (I.Ctx)
      Assumption = "ASSUME " + T0.Node[0].str(*I.Ctx) + " AND " +
                   T1.Node[0].str(*I.Ctx) +
                   " DO NOT PARTIALLY OVERLAP (alias or separate)";
    std::vector<ForestResult> Out = aliasCase();
    for (ForestResult &F : sepCase()) {
      Out.push_back(std::move(F));
      if (Out.size() >= Budget)
        break;
    }
    for (ForestResult &F : Out)
      if (!Assumption.empty())
        F.Assumptions.push_back(Assumption);
    return Out;
  }
  }
  return {};
}

} // namespace

std::vector<InsertResult>
MemModel::insert(const Region &R, const Pred &P, RelationSolver &Solver,
                 UnknownPolicy Policy, const ExprContext &Ctx) const {
  InsCtx I{P, Solver, Policy, &Ctx};
  MemTree Leaf{{R}, {}};

  // Anchoring: if R provably relates (alias / enclosure / overlap) to some
  // region of exactly one top-level tree, the forest's own separation
  // assertions imply R is separate from every other tree — the model is a
  // source of relations, not just the predicate (§3.2). Without this, the
  // Example 3.8 sequence would destroy Figure 2b's rdi tree when the
  // enclosed child is inserted.
  int Anchor = -1;
  bool MultiAnchor = false;
  for (size_t TI = 0; TI < Forest.size(); ++TI) {
    std::vector<Region> All;
    Forest[TI].collectRegions(All);
    for (const Region &R2 : All) {
      MemRel Rel = Solver.relate(R, R2, P);
      if (Rel == MemRel::MustAlias || Rel == MemRel::MustEnc01 ||
          Rel == MemRel::MustEnc10 || Rel == MemRel::MustPartial) {
        if (Anchor >= 0 && Anchor != static_cast<int>(TI))
          MultiAnchor = true;
        Anchor = static_cast<int>(TI);
        break;
      }
    }
  }

  std::vector<ForestResult> Results;
  if (Anchor >= 0 && !MultiAnchor) {
    // Insert into the anchor tree alone; every sibling stays untouched.
    std::span<const MemTree> Single =
        std::span<const MemTree>(*Forest).subspan(
            static_cast<size_t>(Anchor), 1);
    for (ForestResult &F :
         insTree(Leaf, Single, I, static_cast<unsigned>(MaxModelsPerInsert))) {
      ForestResult Full;
      Full.Destroyed = std::move(F.Destroyed);
      Full.Assumptions = std::move(F.Assumptions);
      for (size_t TI = 0; TI < Forest.size(); ++TI) {
        if (TI == static_cast<size_t>(Anchor))
          Full.Forest.insert(Full.Forest.end(),
                             std::make_move_iterator(F.Forest.begin()),
                             std::make_move_iterator(F.Forest.end()));
        else
          Full.Forest.push_back(Forest[TI]);
      }
      Results.push_back(std::move(Full));
    }
  } else {
    Results =
        insTree(Leaf, *Forest, I, static_cast<unsigned>(MaxModelsPerInsert));
  }

  std::vector<InsertResult> Out;
  for (ForestResult &F : Results) {
    InsertResult IR;
    IR.Model = *this;
    // A copy, not a move. F.Forest's trees were allocated in the middle of
    // insTree's temporaries, which are freed by now; an outcome usually
    // lives on as a vertex state, shared by its successors and the leq
    // memo, and a fresh copy keeps those long-lived trees out of the holes
    // the temporaries leave. (Moving measurably raised a long-running
    // daemon's peak RSS through that fragmentation.)
    IR.Model.Forest = F.Forest;
    IR.Destroyed = std::move(F.Destroyed);
    IR.Assumptions = std::move(F.Assumptions);
    Out.push_back(std::move(IR));
    if (Out.size() >= MaxModelsPerInsert)
      break;
  }
  return Out;
}

void MemModel::noteWrite(const Region &R) {
  if (HavocAll)
    return;
  for (const Region &C : Clobbered)
    if (C == R)
      return;
  if (Clobbered.size() >= MaxClobbered) {
    HavocAll = true;
    Clobbered = {};
    return;
  }
  Clobbered.mut().push_back(R);
}

bool MemModel::provablyUntouched(const Region &R, const Pred &P,
                                 RelationSolver &Solver,
                                 const ExprContext &Ctx) const {
  if (HavocAll)
    return false;
  if (HavocGlobals &&
      smt::classifyAddr(R.Addr, Ctx) != AllocClass::StackFrame)
    return false;
  for (const Region &C : Clobbered)
    if (Solver.relate(R, C, P) != MemRel::MustSep)
      return false;
  return true;
}

// --- join --------------------------------------------------------------------

namespace {

bool nodesShareRegion(const MemTree &A, const MemTree &B) {
  for (const Region &R : A.Node)
    for (const Region &S : B.Node)
      if (R == S)
        return true;
  return false;
}

/// Join two forests per Definition 3.12, with the soundness restriction
/// that one-sided equivalence classes are dropped (a tree present in only
/// one operand asserts relations the other operand does not imply).
std::vector<MemTree> joinForests(const std::vector<MemTree> &FA,
                                 const std::vector<MemTree> &FB) {
  struct Entry {
    const MemTree *T;
    bool FromA;
    int Class;
  };
  std::vector<Entry> Entries;
  for (const MemTree &T : FA)
    Entries.push_back({&T, true, -1});
  for (const MemTree &T : FB)
    Entries.push_back({&T, false, -1});

  // Transitive closure of the shares-a-top-region relation.
  int NumClasses = 0;
  for (size_t I = 0; I < Entries.size(); ++I) {
    if (Entries[I].Class >= 0)
      continue;
    Entries[I].Class = NumClasses++;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t J = 0; J < Entries.size(); ++J) {
        if (Entries[J].Class >= 0)
          continue;
        for (size_t K = 0; K < Entries.size(); ++K)
          if (Entries[K].Class == Entries[I].Class &&
              nodesShareRegion(*Entries[J].T, *Entries[K].T)) {
            Entries[J].Class = Entries[I].Class;
            Changed = true;
            break;
          }
      }
    }
  }

  std::vector<MemTree> Out;
  for (int C = 0; C < NumClasses; ++C) {
    std::vector<const MemTree *> InClass;
    bool HasA = false, HasB = false;
    for (const Entry &E : Entries)
      if (E.Class == C) {
        InClass.push_back(E.T);
        (E.FromA ? HasA : HasB) = true;
      }
    if (!HasA || !HasB)
      continue; // one-sided: drop (weakening)

    // joint(T): intersect the region sets, join the child forests.
    std::vector<Region> Node = InClass[0]->Node;
    for (size_t I = 1; I < InClass.size(); ++I) {
      std::vector<Region> Keep;
      for (const Region &R : Node)
        if (std::find(InClass[I]->Node.begin(), InClass[I]->Node.end(), R) !=
            InClass[I]->Node.end())
          Keep.push_back(R);
      Node = std::move(Keep);
    }
    if (Node.empty())
      continue;

    std::vector<MemTree> Kids;
    bool First = true;
    for (const MemTree *T : InClass) {
      if (First) {
        Kids = T->Children;
        First = false;
      } else {
        Kids = joinForests(Kids, T->Children);
      }
    }
    Out.push_back(MemTree{std::move(Node), std::move(Kids)});
  }
  return Out;
}

/// Does joinForests(F, F) return F tree for tree? It does exactly when no
/// node is empty and no two siblings share a region, at every depth: then
/// each class is one tree plus its copy, the node intersection is the node
/// itself and the children recurse the same way. An empty node is dropped
/// as one-sided and sharing siblings merge into one class, so the result
/// is shorter than F.
bool selfJoinIsIdentity(const std::vector<MemTree> &F) {
  for (size_t I = 0; I < F.size(); ++I) {
    if (F[I].Node.empty())
      return false;
    for (size_t J = 0; J < I; ++J)
      if (nodesShareRegion(F[I], F[J]))
        return false;
    if (!selfJoinIsIdentity(F[I].Children))
      return false;
  }
  return true;
}

} // namespace

MemModel MemModel::join(const MemModel &A, const MemModel &B) {
  MemModel J;
  // Nearly every join at a revisited vertex brings the vertex's own forest
  // back (Cow's == short-circuits on a shared buffer); keep A's buffer then
  // instead of rebuilding the same trees.
  if (A.Forest == B.Forest && selfJoinIsIdentity(*A.Forest))
    J.Forest = A.Forest;
  else
    J.Forest = joinForests(*A.Forest, *B.Forest);
  // Clobber knowledge is unioned: more clobbered is more abstract.
  J.HavocAll = A.HavocAll || B.HavocAll;
  J.HavocGlobals = A.HavocGlobals || B.HavocGlobals;
  if (!J.HavocAll) {
    J.Clobbered = A.Clobbered; // shared until B adds a region
    for (const Region &R : B.Clobbered) {
      if (std::find(J.Clobbered.begin(), J.Clobbered.end(), R) ==
          J.Clobbered.end())
        J.Clobbered.mut().push_back(R);
      if (J.Clobbered.size() > MaxClobbered) {
        J.HavocAll = true;
        J.Clobbered = {};
        break;
      }
    }
  }
  return J;
}

// --- inspection -----------------------------------------------------------------

namespace {

struct Placement {
  Region R;
  std::vector<int> Path; // node indices from the root
};

void collectPlacements(const std::vector<MemTree> &Forest,
                       std::vector<int> &Path, std::vector<Placement> &Out) {
  for (size_t I = 0; I < Forest.size(); ++I) {
    Path.push_back(static_cast<int>(I));
    for (const Region &R : Forest[I].Node)
      Out.push_back(Placement{R, Path});
    collectPlacements(Forest[I].Children, Path, Out);
    Path.pop_back();
  }
}

bool isPrefix(const std::vector<int> &A, const std::vector<int> &B) {
  if (A.size() > B.size())
    return false;
  return std::equal(A.begin(), A.end(), B.begin());
}

} // namespace

std::vector<RegionRel> MemModel::relations() const {
  std::vector<Placement> Ps;
  std::vector<int> Path;
  collectPlacements(*Forest, Path, Ps);

  std::vector<RegionRel> Out;
  for (size_t I = 0; I < Ps.size(); ++I)
    for (size_t J = I + 1; J < Ps.size(); ++J) {
      const Placement &A = Ps[I], &B = Ps[J];
      MemRel R;
      if (A.Path == B.Path)
        R = MemRel::MustAlias;
      else if (isPrefix(A.Path, B.Path))
        R = MemRel::MustEnc10; // B enclosed in A
      else if (isPrefix(B.Path, A.Path))
        R = MemRel::MustEnc01;
      else
        R = MemRel::MustSep;
      Out.push_back(RegionRel{A.R, B.R, R});
    }
  return Out;
}

namespace {

bool locateRec(const std::vector<MemTree> &Forest, const Region &R,
               std::vector<Region> &Aliases, std::vector<Region> &Ancestors,
               std::vector<Region> &Descendants,
               std::vector<Region> &PathRegions) {
  for (const MemTree &T : Forest) {
    bool Here = std::find(T.Node.begin(), T.Node.end(), R) != T.Node.end();
    if (Here) {
      for (const Region &A : T.Node)
        if (!(A == R))
          Aliases.push_back(A);
      Ancestors = PathRegions;
      for (const MemTree &C : T.Children)
        C.collectRegions(Descendants);
      return true;
    }
    size_t Mark = PathRegions.size();
    PathRegions.insert(PathRegions.end(), T.Node.begin(), T.Node.end());
    if (locateRec(T.Children, R, Aliases, Ancestors, Descendants,
                  PathRegions))
      return true;
    PathRegions.resize(Mark);
  }
  return false;
}

} // namespace

bool MemModel::locate(const Region &R, std::vector<Region> &Aliases,
                      std::vector<Region> &Ancestors,
                      std::vector<Region> &Descendants) const {
  std::vector<Region> Path;
  return locateRec(*Forest, R, Aliases, Ancestors, Descendants, Path);
}

std::vector<Region> MemModel::allRegions() const {
  std::vector<Region> Out;
  for (const MemTree &T : Forest)
    T.collectRegions(Out);
  return Out;
}

namespace {

/// The first requirement of B's that A fails to meet: a relation B's
/// forest asserts and A's does not, or clobber knowledge B lacks.
struct MemLeqMiss {
  enum class Kind : uint8_t { Relation, HavocAll, HavocGlobals, Written };
  Kind K;
  RegionRel Rel{};   ///< Relation: the relation of B's
  Region Written{};  ///< Written: the region A may have written
};

/// The one walk behind leq() and leqExplain().
std::optional<MemLeqMiss> firstMiss(const MemModel &A, const MemModel &B) {
  using Kind = MemLeqMiss::Kind;
  // Every relation asserted by B must be asserted by A.
  std::vector<RegionRel> RA = A.relations();
  auto AssertedByA = [&](const RegionRel &R) {
    for (const RegionRel &S : RA) {
      if (S.R0 == R.R0 && S.R1 == R.R1 && S.Rel == R.Rel)
        return true;
      // Symmetric forms.
      if (S.R0 == R.R1 && S.R1 == R.R0) {
        if (S.Rel == R.Rel &&
            (R.Rel == MemRel::MustAlias || R.Rel == MemRel::MustSep))
          return true;
        if ((S.Rel == MemRel::MustEnc01 && R.Rel == MemRel::MustEnc10) ||
            (S.Rel == MemRel::MustEnc10 && R.Rel == MemRel::MustEnc01))
          return true;
      }
    }
    return false;
  };
  for (const RegionRel &R : B.relations())
    if (!AssertedByA(R))
      return MemLeqMiss{Kind::Relation, R};

  // B's clobber knowledge must cover A's.
  if (A.HavocAll && !B.HavocAll)
    return MemLeqMiss{Kind::HavocAll};
  if (A.HavocGlobals && !(B.HavocGlobals || B.HavocAll))
    return MemLeqMiss{Kind::HavocGlobals};
  if (!B.HavocAll)
    for (const Region &R : A.Clobbered)
      if (std::find(B.Clobbered.begin(), B.Clobbered.end(), R) ==
          B.Clobbered.end())
        return MemLeqMiss{Kind::Written, {}, R};
  return std::nullopt;
}

} // namespace

bool MemModel::leq(const MemModel &A, const MemModel &B) {
  return !firstMiss(A, B);
}

std::string MemModel::leqExplain(const expr::ExprContext &Ctx,
                                 const MemModel &A, const MemModel &B) {
  std::optional<MemLeqMiss> Miss = firstMiss(A, B);
  if (!Miss)
    return std::string();
  switch (Miss->K) {
  case MemLeqMiss::Kind::Relation:
    return "memory relation " + Miss->Rel.R0.str(Ctx) + " " +
           memRelName(Miss->Rel.Rel) + " " + Miss->Rel.R1.str(Ctx) +
           " required by the target is not asserted by the state's forest";
  case MemLeqMiss::Kind::HavocAll:
    return "state may have clobbered all of memory but the target does not "
           "allow it";
  case MemLeqMiss::Kind::HavocGlobals:
    return "state may have clobbered global memory but the target does not "
           "allow it";
  case MemLeqMiss::Kind::Written:
    break;
  }
  return "state may have written region " + Miss->Written.str(Ctx) +
         " but the target's clobber set does not include it";
}

// --- digest ------------------------------------------------------------------

namespace {

inline uint64_t mixDigest(uint64_t H, uint64_t V) {
  V *= 0x9e3779b97f4a7c15ULL;
  V ^= V >> 29;
  H ^= V;
  return H * 0xbf58476d1ce4e5b9ULL + 1;
}

uint64_t digestTree(uint64_t H, const MemTree &T) {
  H = mixDigest(H, 0xa11ce); // node marker: separates siblings from nesting
  for (const Region &R : T.Node) {
    H = mixDigest(H, R.Addr->hashValue());
    H = mixDigest(H, R.Size);
  }
  for (const MemTree &C : T.Children)
    H = digestTree(H, C);
  return mixDigest(H, 0xc105e);
}

} // namespace

uint64_t MemModel::digest() const {
  uint64_t H = 0xf04e57;
  for (const MemTree &T : Forest)
    H = digestTree(H, T);
  H = mixDigest(H, (HavocAll ? 2 : 0) | (HavocGlobals ? 1 : 0));
  for (const Region &R : Clobbered) {
    H = mixDigest(H, R.Addr->hashValue());
    H = mixDigest(H, R.Size);
  }
  return H;
}

// --- semantic satisfaction (Definition 3.9) --------------------------------------

bool MemModel::holds(const expr::VarValuation &Vars,
                     const expr::MemOracle &Mem) const {
  std::vector<Placement> Ps;
  std::vector<int> Path;
  collectPlacements(*Forest, Path, Ps);

  auto EvalAddr = [&](const Region &R, uint64_t &Out) {
    auto V = expr::evalExpr(R.Addr, Vars, Mem);
    if (!V)
      return false;
    Out = *V;
    return true;
  };

  for (size_t I = 0; I < Ps.size(); ++I)
    for (size_t J = I + 1; J < Ps.size(); ++J) {
      const Placement &A = Ps[I], &B = Ps[J];
      uint64_t EA, EB;
      if (!EvalAddr(A.R, EA) || !EvalAddr(B.R, EB))
        return false;
      __uint128_t EndA = static_cast<__uint128_t>(EA) + A.R.Size;
      __uint128_t EndB = static_cast<__uint128_t>(EB) + B.R.Size;
      if (A.Path == B.Path) {
        if (!(EA == EB && A.R.Size == B.R.Size))
          return false;
      } else if (isPrefix(A.Path, B.Path)) {
        if (!(EB >= EA && EndB <= EndA))
          return false;
      } else if (isPrefix(B.Path, A.Path)) {
        if (!(EA >= EB && EndA <= EndB))
          return false;
      } else {
        if (!(EndA <= EB || EndB <= EA))
          return false;
      }
    }
  return true;
}

std::string MemModel::str(const ExprContext &Ctx) const {
  std::string S;
  std::function<void(const MemTree &, int)> Dump = [&](const MemTree &T,
                                                       int Depth) {
    S += std::string(static_cast<size_t>(Depth) * 2, ' ');
    S += "{";
    for (size_t I = 0; I < T.Node.size(); ++I) {
      if (I)
        S += " == ";
      S += T.Node[I].str(Ctx);
    }
    S += "}\n";
    for (const MemTree &C : T.Children)
      Dump(C, Depth + 1);
  };
  for (const MemTree &T : Forest)
    Dump(T, 0);
  if (HavocAll)
    S += "(havoc: all)\n";
  else if (HavocGlobals)
    S += "(havoc: globals)\n";
  return S;
}

} // namespace hglift::mem
