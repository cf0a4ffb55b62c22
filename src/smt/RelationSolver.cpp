#include "smt/RelationSolver.h"

#include "diag/Trace.h"
#include "smt/Z3Backend.h"

#include <algorithm>
#include <chrono>

namespace hglift::smt {

using expr::Expr;
using expr::ExprContext;
using expr::ExprKind;
using expr::LinearForm;
using expr::VarClass;

namespace {
inline size_t mixHash(size_t H, uint64_t V) {
  V *= 0x9e3779b97f4a7c15ULL;
  V ^= V >> 29;
  return (H ^ V) * 0xbf58476d1ce4e5b9ULL + 1;
}

/// A - B over canonical linear forms (both sorted by atom pointer with
/// merged coefficients, as linearize produces them). Merging directly is
/// what lets the portfolio skip interning a Sub expression and
/// re-linearizing it for every query.
LinearForm subForms(const LinearForm &A, const LinearForm &B) {
  LinearForm R;
  R.Constant = static_cast<int64_t>(static_cast<uint64_t>(A.Constant) -
                                    static_cast<uint64_t>(B.Constant));
  R.Terms.reserve(A.Terms.size() + B.Terms.size());
  size_t I = 0, J = 0;
  while (I < A.Terms.size() || J < B.Terms.size()) {
    bool TakeA = J == B.Terms.size() ||
                 (I < A.Terms.size() &&
                  A.Terms[I].second < B.Terms[J].second);
    bool TakeB = I == A.Terms.size() ||
                 (J < B.Terms.size() &&
                  B.Terms[J].second < A.Terms[I].second);
    if (TakeA) {
      R.Terms.push_back(A.Terms[I++]);
    } else if (TakeB) {
      R.Terms.push_back({static_cast<int64_t>(
                             -static_cast<uint64_t>(B.Terms[J].first)),
                         B.Terms[J].second});
      ++J;
    } else {
      int64_t C = static_cast<int64_t>(
          static_cast<uint64_t>(A.Terms[I].first) -
          static_cast<uint64_t>(B.Terms[J].first));
      if (C != 0)
        R.Terms.push_back({C, A.Terms[I].second});
      ++I;
      ++J;
    }
  }
  return R;
}
} // namespace

size_t RelationSolver::RelKeyHash::operator()(const RelKey &K) const {
  size_t H = mixHash(0x5e1a7e, K.A0->hashValue());
  H = mixHash(H, K.A1->hashValue());
  H = mixHash(H, (uint64_t(K.S0) << 32) | K.S1);
  return mixHash(H, K.Ver);
}

size_t RelationSolver::EqKeyHash::operator()(const EqKey &K) const {
  size_t H = mixHash(0xe9a1, K.E0->hashValue());
  H = mixHash(H, K.E1->hashValue());
  return mixHash(H, K.Ver);
}

const char *memRelName(MemRel R) {
  switch (R) {
  case MemRel::MustAlias:
    return "alias";
  case MemRel::MustSep:
    return "separate";
  case MemRel::MustEnc01:
    return "enclosed";
  case MemRel::MustEnc10:
    return "encloses";
  case MemRel::MustPartial:
    return "partial-overlap";
  case MemRel::Unknown:
    return "unknown";
  }
  return "?";
}

const char *tierName(Tier T) {
  switch (T) {
  case Tier::Syntactic:
    return "syntactic";
  case Tier::Interval:
    return "interval";
  case Tier::AllocClass:
    return "alloc-class";
  case Tier::Z3:
    return "z3";
  case Tier::None:
    return "undecided";
  }
  return "?";
}

AllocClass classifyForm(const LinearForm &LF, const ExprContext &Ctx) {
  if (LF.Terms.empty())
    return AllocClass::Global;
  // Base variables (coefficient 1) determine the allocation; any remaining
  // terms are treated as array indices *within* that allocation — this is
  // the paper's implicit "global/stack/heap spaces do not overlap"
  // assumption applied to indexed accesses as well.
  bool HasStack = false, HasHeap = false, HasArg = false, HasIndex = false;
  for (auto &[Coeff, Atom] : LF.Terms) {
    if (Atom->isVar() && Coeff == 1) {
      VarClass C = Ctx.varInfo(Atom->varId()).Cls;
      if (C == VarClass::StackBase) {
        HasStack = true;
        continue;
      }
      if (C == VarClass::External) {
        HasHeap = true;
        continue;
      }
      if (C == VarClass::InitReg) {
        HasArg = true;
        continue;
      }
    }
    HasIndex = true;
  }
  unsigned Bases = unsigned(HasStack) + unsigned(HasHeap) + unsigned(HasArg);
  if (Bases > 1)
    return AllocClass::Other;
  if (HasStack)
    return AllocClass::StackFrame;
  if (HasHeap)
    return AllocClass::Heap;
  if (HasArg)
    return AllocClass::ArgPtr;
  static_cast<void>(HasIndex);
  return AllocClass::Global;
}

AllocClass classifyAddr(const Expr *Addr, const ExprContext &Ctx) {
  return classifyForm(expr::linearize(Addr), Ctx);
}

RelationSolver::RelationSolver(ExprContext &Ctx, Config Cfg)
    : Ctx(Ctx), Cfg(Cfg) {
#ifdef HGLIFT_WITH_Z3
  if (Cfg.UseZ3)
    Z3 = std::make_unique<Z3Backend>();
#endif
}

RelationSolver::~RelationSolver() = default;

namespace {
/// Delta = addr0 - addr1, constant. The no-wraparound assumption for
/// same-base offsets is implicit in compiler-generated address
/// arithmetic; partial overlap is decided exactly here.
MemRel relByDelta(int64_t Delta, uint32_t S0, uint32_t S1) {
  if (Delta == 0 && S0 == S1)
    return MemRel::MustAlias;
  if (Delta >= static_cast<int64_t>(S1) ||
      -Delta >= static_cast<int64_t>(S0))
    return MemRel::MustSep;
  if (Delta >= 0 && Delta + static_cast<int64_t>(S0) <= static_cast<int64_t>(S1))
    return MemRel::MustEnc01;
  if (Delta <= 0 &&
      -Delta + static_cast<int64_t>(S1) <= static_cast<int64_t>(S0))
    return MemRel::MustEnc10;
  return MemRel::MustPartial;
}

/// Map the interval of (addr0 - addr1) onto a relation, or Unknown if the
/// interval does not pin one down. Shared by tier 1 and the forced-tier
/// replay so they cannot drift apart.
MemRel relFromDiffInterval(const Interval &ID, uint32_t S0, uint32_t S1) {
  if (ID.isTop() || ID.isEmpty())
    return MemRel::Unknown;
  if (ID.atLeast(static_cast<int64_t>(S1)) ||
      ID.below(-static_cast<int64_t>(S0) + 1))
    return MemRel::MustSep;
  if (ID.isPoint())
    return relByDelta(ID.lo(), S0, S1);
  if (Interval(0, static_cast<int64_t>(S1) - static_cast<int64_t>(S0))
          .contains(ID))
    return MemRel::MustEnc01;
  if (Interval(-(static_cast<int64_t>(S0) - static_cast<int64_t>(S1)), 0)
          .contains(ID))
    return MemRel::MustEnc10;
  return MemRel::Unknown;
}

/// The allocation-class pairs the paper relies on: the local stack frame
/// is assumed separate from globals, the heap, and pointer arguments ("the
/// local stack frame was modelled accurately", §5.1), and globals from
/// fresh heap allocations. A pointer argument may well alias a global, so
/// that pair stays Unknown.
bool distinctClasses(AllocClass C0, AllocClass C1) {
  auto Pair = [&](AllocClass X, AllocClass Y) {
    return (C0 == X && C1 == Y) || (C0 == Y && C1 == X);
  };
  return Pair(AllocClass::StackFrame, AllocClass::Global) ||
         Pair(AllocClass::StackFrame, AllocClass::Heap) ||
         Pair(AllocClass::StackFrame, AllocClass::ArgPtr) ||
         Pair(AllocClass::Global, AllocClass::Heap);
}
} // namespace

void RelationSolver::boundCaches(uint64_t LiveVer) {
  if (RelCache.size() + EqCache.size() < CacheCap)
    return;
  size_t Before = RelCache.size() + EqCache.size();
  for (auto It = RelCache.begin(); It != RelCache.end();)
    It = It->first.Ver == LiveVer ? std::next(It) : RelCache.erase(It);
  for (auto It = EqCache.begin(); It != EqCache.end();)
    It = It->first.Ver == LiveVer ? std::next(It) : EqCache.erase(It);
  uint64_t Stale = Before - (RelCache.size() + EqCache.size());
  LS->RelCacheInvalidated += Stale;
  if (Stale == 0) {
    // Everything belongs to the live version: clearing is the only way to
    // respect the cap. These entries were still hittable, so they count
    // as evictions, not invalidations.
    RelCache.clear();
    EqCache.clear();
    LS->RelCacheEvicted += Before;
  }
}

RelationSolver::Decision RelationSolver::decide(const Region &R0,
                                                const Region &R1,
                                                const pred::Pred &P) {
  ++LS->SolverQueries;
  RelKey Key{R0.Addr, R1.Addr, R0.Size, R1.Size, P.version()};
  if (auto It = RelCache.find(Key); It != RelCache.end()) {
    ++LS->RelCacheHits;
    return Decision{It->second.Rel, It->second.DecidedBy};
  }
  ++LS->RelCacheMisses;
  Decision D = decideRecorded(R0, R1, P);
  boundCaches(Key.Ver);
  RelCache.emplace(Key, CachedRel{D.Rel, D.DecidedBy});
  return D;
}

RelationSolver::Decision
RelationSolver::decideRecorded(const Region &R0, const Region &R1,
                               const pred::Pred &P) {
  auto Start = std::chrono::steady_clock::now();
  Decision D = decidePortfolio(R0, R1, P);
  LS->SolverSeconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();

  switch (D.DecidedBy) {
  case Tier::Syntactic:
    ++LS->SolverTier0Hits;
    break;
  case Tier::Interval:
    ++LS->SolverTier1Hits;
    break;
  case Tier::AllocClass:
    ++LS->SolverClassHits;
    break;
  case Tier::Z3:
    ++LS->SolverTier2Hits;
    break;
  case Tier::None:
    ++LS->SolverFallthroughs;
    break;
  }

  Recent[RecentCount++ % QueryRingSize] =
      QueryRec{R0.Addr,       R1.Addr, R0.Size, R1.Size, D.Rel,
               uint8_t(D.DecidedBy)};

  if (Cfg.LogQueries && Log.size() < LogCap)
    Log.push_back(LoggedQuery{R0.Addr, R1.Addr, R0.Size, R1.Size, P, D.Rel,
                              D.DecidedBy});

  if (diag::Tracer *T = diag::Tracer::active()) {
    diag::TraceEvent E("solver_call");
    E.hex("fn", diag::TraceContext::currentFunction());
    E.field("r0", R0.str(Ctx));
    E.field("r1", R1.str(Ctx));
    E.field("rel", memRelName(D.Rel));
    E.field("layer", tierName(D.DecidedBy));
    T->emit(std::move(E));
  }
  return D;
}

std::vector<std::string> RelationSolver::recentQueries(size_t Max) const {
  std::vector<std::string> Out;
  uint64_t N = std::min<uint64_t>({RecentCount, QueryRingSize, Max});
  for (uint64_t I = 0; I < N; ++I) {
    const QueryRec &Q = Recent[(RecentCount - 1 - I) % QueryRingSize];
    Out.push_back(Region{Q.A0, Q.S0}.str(Ctx) + " vs " +
                  Region{Q.A1, Q.S1}.str(Ctx) + " -> " +
                  memRelName(Q.Res) + " (" + tierName(Tier(Q.Layer)) + ")");
  }
  return Out;
}

const LinearForm &RelationSolver::linearizeMemo(const Expr *E) {
  auto It = LinMemo.find(E);
  if (It != LinMemo.end())
    return It->second;
  return LinMemo.emplace(E, expr::linearize(E)).first->second;
}

const std::vector<const Expr *> &RelationSolver::leavesOf(const Expr *E) {
  auto It = LeafMemo.find(E);
  if (It != LeafMemo.end())
    return It->second;
  // Iterative DFS collecting Var and Deref nodes. A Deref is opaque: it
  // translates to one fresh Z3 constant keyed on the node itself, so its
  // address subexpression cannot constrain anything and is not descended
  // into.
  std::vector<const Expr *> Leaves;
  std::vector<const Expr *> Work{E};
  while (!Work.empty()) {
    const Expr *X = Work.back();
    Work.pop_back();
    switch (X->kind()) {
    case ExprKind::Var:
    case ExprKind::Deref:
      Leaves.push_back(X);
      break;
    case ExprKind::Const:
      break;
    case ExprKind::Op:
      for (const Expr *Op : X->operands())
        Work.push_back(Op);
      break;
    }
  }
  std::sort(Leaves.begin(), Leaves.end());
  Leaves.erase(std::unique(Leaves.begin(), Leaves.end()), Leaves.end());
  return LeafMemo.emplace(E, std::move(Leaves)).first->second;
}

const RelationSolver::RangeInfo &
RelationSolver::rangeInfoOf(const pred::Pred &P) {
  auto It = RangeInfoMemo.find(P.version());
  if (It != RangeInfoMemo.end())
    return It->second;
  RangeInfo RI;
  RI.HasEq = P.hasEqRange();
  for (const pred::RangeClause &C : P.ranges()) {
    const std::vector<const Expr *> &L = leavesOf(C.E);
    RI.Leaves.insert(RI.Leaves.end(), L.begin(), L.end());
  }
  std::sort(RI.Leaves.begin(), RI.Leaves.end());
  RI.Leaves.erase(std::unique(RI.Leaves.begin(), RI.Leaves.end()),
                  RI.Leaves.end());
  return RangeInfoMemo.emplace(P.version(), std::move(RI)).first->second;
}

namespace {
bool sortedContains(const std::vector<const Expr *> &V, const Expr *E) {
  return std::binary_search(V.begin(), V.end(), E);
}
bool sortedIntersect(const std::vector<const Expr *> &A,
                     const std::vector<const Expr *> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}
} // namespace

bool RelationSolver::admitSkipsZ3(const Region &R0, const Region &R1,
                                  const LinearForm &L0, const LinearForm &L1,
                                  const pred::Pred &P) {
  // Without range clauses Z3 has no information beyond the syntactic core.
  if (P.ranges().empty())
    return true;

  const RangeInfo &RI = rangeInfoOf(P);
  const std::vector<const Expr *> &Lv0 = leavesOf(R0.Addr);
  const std::vector<const Expr *> &Lv1 = leavesOf(R1.Addr);

  // Rule 1 — irrelevance: no range clause mentions any leaf of either
  // address, and the addresses share no leaf. The assertions then say
  // nothing about either address and there is no common subterm for Z3 to
  // reason through; the only separations it could still find are pure
  // bit-structure arguments (parity tricks and the like) that compiler
  // address arithmetic does not produce.
  auto Touches = [&](const std::vector<const Expr *> &Lv) {
    for (const Expr *L : Lv)
      if (sortedContains(RI.Leaves, L))
        return true;
    return false;
  };
  bool Clause0 = Touches(Lv0), Clause1 = Touches(Lv1);
  if (!Clause0 && !Clause1 && !sortedIntersect(Lv0, Lv1))
    return true;

  // Rule 2 — free side: one address is v + k for a 64-bit variable v that
  // appears in no range clause and not in the other address. If the
  // predicate is satisfiable, v can be chosen to realize both overlap and
  // disjointness (it is unconstrained and occurs nowhere else), so no
  // necessarily-relation is derivable and the round trip is wasted. The
  // guard: predicates carrying an Eq clause are never filtered — those are
  // the pinned (often widened-loop) states that can be *unsatisfiable*,
  // where Z3 proves every relation vacuously, and we keep that precision.
  if (!RI.HasEq) {
    auto FreeSide = [&](const LinearForm &L,
                        const std::vector<const Expr *> &OtherLeaves) {
      if (L.Terms.size() != 1)
        return false;
      auto &[Coeff, Atom] = L.Terms[0];
      if (Coeff != 1 && Coeff != -1)
        return false;
      if (!Atom->isVar() || Atom->width() != 64)
        return false;
      return !sortedContains(RI.Leaves, Atom) &&
             !sortedContains(OtherLeaves, Atom);
    };
    if (FreeSide(L0, Lv1) || FreeSide(L1, Lv0))
      return true;
  }
  return false;
}

RelationSolver::Decision
RelationSolver::decidePortfolio(const Region &R0, const Region &R1,
                                const pred::Pred &P) {
  // Bound the memos up front, never mid-query: every map is node-based,
  // so inserts keep references valid; only clearing would not.
  if (LinMemo.size() > MemoCap)
    LinMemo.clear();
  if (LeafMemo.size() > MemoCap)
    LeafMemo.clear();
  if (RangeInfoMemo.size() > MemoCap)
    RangeInfoMemo.clear();

  // Tier 0: syntactic discharge.
  if (R0.Addr == R1.Addr && R0.Size == R1.Size)
    return Decision{MemRel::MustAlias, Tier::Syntactic};

  const LinearForm &L0 = linearizeMemo(R0.Addr);
  const LinearForm &L1 = linearizeMemo(R1.Addr);
  if (L0.sameBase(L1))
    return Decision{relByDelta(static_cast<int64_t>(
                                   static_cast<uint64_t>(L0.Constant) -
                                   static_cast<uint64_t>(L1.Constant)),
                               R0.Size, R1.Size),
                    Tier::Syntactic};

  // Tier 1: interval reasoning on the linear difference, computed by
  // direct form subtraction (no Sub expression interned, no
  // re-linearization).
  LinearForm Diff = subForms(L0, L1);
  MemRel R =
      relFromDiffInterval(P.intervalOfForm(Diff), R0.Size, R1.Size);
  if (R != MemRel::Unknown)
    return Decision{R, Tier::Interval};

  // Allocation-class separation assumptions (recorded as obligations).
  if (Cfg.AllocClassAssumptions &&
      distinctClasses(classifyForm(L0, Ctx), classifyForm(L1, Ctx))) {
    Assumptions.push_back(Assumption{
        "ASSUME " + R0.str(Ctx) + " SEPARATE FROM " + R1.str(Ctx) +
        " (distinct allocation classes)"});
    return Decision{MemRel::MustSep, Tier::AllocClass};
  }

#ifdef HGLIFT_WITH_Z3
  if (Z3) {
    if (admitSkipsZ3(R0, R1, L0, L1, P)) {
      ++LS->SolverTier2Skipped;
    } else {
      ++LS->Z3Queries;
      MemRel ZR = Z3->query(R0, R1, P, Ctx, /*Persistent=*/true);
      if (ZR != MemRel::Unknown)
        return Decision{ZR, Tier::Z3};
    }
  }
#endif

  return Decision{MemRel::Unknown, Tier::None};
}

RelationSolver::Decision
RelationSolver::decideWithTierOnly(const Region &R0, const Region &R1,
                                   const pred::Pred &P, Tier Only) {
  switch (Only) {
  case Tier::Syntactic: {
    if (R0.Addr == R1.Addr && R0.Size == R1.Size)
      return Decision{MemRel::MustAlias, Tier::Syntactic};
    LinearForm L0 = expr::linearize(R0.Addr);
    LinearForm L1 = expr::linearize(R1.Addr);
    if (L0.sameBase(L1))
      return Decision{relByDelta(static_cast<int64_t>(
                                     static_cast<uint64_t>(L0.Constant) -
                                     static_cast<uint64_t>(L1.Constant)),
                                 R0.Size, R1.Size),
                      Tier::Syntactic};
    return Decision{MemRel::Unknown, Tier::None};
  }
  case Tier::Interval: {
    LinearForm Diff =
        subForms(expr::linearize(R0.Addr), expr::linearize(R1.Addr));
    MemRel R = relFromDiffInterval(P.intervalOfForm(Diff), R0.Size, R1.Size);
    return Decision{R, R != MemRel::Unknown ? Tier::Interval : Tier::None};
  }
  case Tier::AllocClass: {
    if (distinctClasses(classifyAddr(R0.Addr, Ctx),
                        classifyAddr(R1.Addr, Ctx)))
      return Decision{MemRel::MustSep, Tier::AllocClass};
    return Decision{MemRel::Unknown, Tier::None};
  }
  case Tier::Z3: {
#ifdef HGLIFT_WITH_Z3
    if (Z3) {
      // The trusted oracle: a fresh solver, no admission filter, no
      // empty-ranges skip.
      MemRel R = Z3->query(R0, R1, P, Ctx, /*Persistent=*/false);
      return Decision{R, R != MemRel::Unknown ? Tier::Z3 : Tier::None};
    }
#endif
    return Decision{MemRel::Unknown, Tier::None};
  }
  case Tier::None:
    break;
  }
  return Decision{MemRel::Unknown, Tier::None};
}

bool RelationSolver::mustEqual(const Expr *E0, const Expr *E1,
                               const pred::Pred &P) {
  if (E0 == E1)
    return true;
  LinearForm L0 = expr::linearize(E0);
  LinearForm L1 = expr::linearize(E1);
  if (L0.sameBase(L1))
    return L0.Constant == L1.Constant;
#ifdef HGLIFT_WITH_Z3
  if (Z3) {
    EqKey Key{E0, E1, P.version()};
    if (auto It = EqCache.find(Key); It != EqCache.end()) {
      ++LS->RelCacheHits;
      return It->second;
    }
    ++LS->RelCacheMisses;
    bool Eq = Z3->mustEqual(E0, E1, P, Ctx);
    boundCaches(Key.Ver);
    EqCache.emplace(Key, Eq);
    return Eq;
  }
#endif
  return false;
}

} // namespace hglift::smt
