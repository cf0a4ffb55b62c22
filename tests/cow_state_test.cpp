//===- cow_state_test.cpp - Copy-on-write symbolic states ----------------===//
//
// Pred's clause lists and MemModel's forest and clobber set are
// copy-on-write (support/Cow.h). These properties pin that down:
//   * Cow itself: copies share one buffer, mut() clones only a shared one;
//   * copy-then-mutate, for every Pred mutator and for MemModel's
//     insert / noteWrite / join and direct writes: the original never
//     changes, and the mutated copy equals — clause for clause, by
//     operator== and by digest — the same mutation applied to an unshared
//     deep copy;
//   * Pred::leq, which backtracks its matcher through an undo trail, agrees
//     with the copying matcher it replaced (kept below as the reference) on
//     random predicate pairs and on lifted vertex-state pairs;
//   * MemModel::join, which keeps A's forest buffer when B brings an equal
//     forest that joins with itself to itself, agrees with the
//     joinForests-only join (kept below as the reference) on random pairs,
//     on forests whose self-join drops or merges trees, and on the (vertex
//     state, arriving state) pairs of lifted functions, and keeps the
//     buffer exactly when that identity holds.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "memmodel/MemModel.h"
#include "pred/Pred.h"
#include "support/Cow.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <unordered_map>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::VarClass;
using mem::MemModel;
using mem::MemTree;
using pred::FlagState;
using pred::MemCell;
using pred::Pred;
using pred::RangeClause;
using pred::RelOp;
using smt::Region;

namespace {

// --- Cow ----------------------------------------------------------------------

TEST(Cow, CopiesShareAndMutationClonesOnlyShared) {
  Cow<std::vector<int>> A;
  EXPECT_TRUE(A.empty());
  A.mut().push_back(1);
  Cow<std::vector<int>> B = A;
  EXPECT_TRUE(A.sharesWith(B));
  EXPECT_EQ(A, B);

  B.mut().push_back(2); // shared: clones
  EXPECT_FALSE(A.sharesWith(B));
  EXPECT_EQ(*A, std::vector<int>{1});
  EXPECT_EQ(*B, (std::vector<int>{1, 2}));

  Cow<std::vector<int>> Alias = B;
  Alias = Cow<std::vector<int>>(); // B is the sole owner again
  const std::vector<int> *Buf = &*B;
  B.mut().push_back(3); // sole owner: in place
  EXPECT_EQ(&*B, Buf);
  EXPECT_EQ(*B, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(B[0], 1);

  Cow<std::vector<int>> C = std::vector<int>{1};
  EXPECT_FALSE(C.sharesWith(A));
  EXPECT_EQ(C, A) << "equality compares contents of distinct buffers";
  Cow<std::vector<int>> E1, E2 = std::vector<int>{};
  EXPECT_EQ(E1, E2) << "no buffer reads as empty";

  Cow<std::vector<int>> M = std::move(C);
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(*M, std::vector<int>{1});
}

// --- deep-copy references -------------------------------------------------------

struct PredSnap {
  bool Bottom = false;
  std::array<const Expr *, x86::NumGPRs> Regs{};
  FlagState Flags;
  std::vector<MemCell> Cells;
  std::vector<RangeClause> Ranges;
  bool operator==(const PredSnap &) const = default;
};

PredSnap snap(const Pred &P) {
  PredSnap S;
  S.Bottom = P.isBottom();
  for (unsigned I = 0; I < x86::NumGPRs; ++I)
    S.Regs[I] = P.reg64(x86::regFromNum(I));
  S.Flags = P.flags();
  S.Cells = P.cells();
  S.Ranges = P.ranges();
  return S;
}

/// A Pred with S's content in buffers nothing else shares.
Pred rebuild(const PredSnap &S) {
  Pred P;
  for (unsigned I = 0; I < x86::NumGPRs; ++I)
    P.setReg64(x86::regFromNum(I), S.Regs[I]);
  const FlagState &F = S.Flags;
  switch (F.K) {
  case FlagState::Kind::Unknown:
    break;
  case FlagState::Kind::Cmp:
    P.setFlagsCmp(F.L, F.R, F.Width);
    break;
  case FlagState::Kind::Test:
    P.setFlagsTest(F.L, F.R, F.Width);
    break;
  case FlagState::Kind::Res:
    P.setFlagsRes(F.L, F.Width);
    break;
  case FlagState::Kind::ZeroOf:
    P.setFlagsZeroOf(F.L, F.Width);
    break;
  }
  for (const MemCell &C : S.Cells)
    P.setCell(C.Addr, C.Size, C.Val);
  for (const RangeClause &C : S.Ranges)
    P.addRange(C.E, C.Op, C.Bound);
  if (S.Bottom)
    P.setBottom();
  return P;
}

struct MemSnap {
  std::vector<MemTree> Forest;
  std::vector<Region> Clobbered;
  bool HavocAll = false, HavocGlobals = false;
  bool operator==(const MemSnap &) const = default;
};

MemSnap snap(const MemModel &M) {
  return MemSnap{*M.Forest, *M.Clobbered, M.HavocAll, M.HavocGlobals};
}

MemModel rebuild(const MemSnap &S) {
  MemModel M;
  M.Forest = S.Forest;
  M.Clobbered = S.Clobbered;
  M.HavocAll = S.HavocAll;
  M.HavocGlobals = S.HavocGlobals;
  return M;
}

// --- random states ------------------------------------------------------------

struct World {
  ExprContext Ctx;
  smt::RelationSolver Solver{Ctx};
  Rng R;
  const Expr *Rsp0, *Rdi0;
  std::vector<const Expr *> Vals, Addrs, Fresh;

  explicit World(uint64_t Seed) : R(Seed) {
    Pred E = Pred::entry(Ctx);
    Rsp0 = E.reg64(x86::Reg::RSP);
    Rdi0 = E.reg64(x86::Reg::RDI);
    for (unsigned I = 0; I < 4; ++I)
      Fresh.push_back(Ctx.mkFresh("f"));
    for (int K = -32; K <= 8; K += 8) {
      Addrs.push_back(Ctx.mkAddK(Rsp0, K));
      Addrs.push_back(Ctx.mkAddK(Rdi0, K));
    }
    Addrs.insert(Addrs.end(), Fresh.begin(), Fresh.end());
    for (uint64_t C : {0, 1, 7, 0x1000})
      Vals.push_back(Ctx.mkConst(C, 64));
    Vals.insert(Vals.end(), Fresh.begin(), Fresh.end());
    Vals.push_back(Rdi0);
    Vals.push_back(Ctx.mkAdd(Rdi0, Fresh[0]));
  }

  const Expr *val() { return R.pick(Vals); }
  const Expr *addr() { return R.pick(Addrs); }
  x86::Reg reg() { return x86::regFromNum(static_cast<unsigned>(R.below(16))); }
  uint32_t size() { return R.chance(3, 4) ? 8 : 4; }
  RelOp op() { return static_cast<RelOp>(R.below(10)); }

  /// One random mutation, with its arguments drawn now so that applying it
  /// to two predicates does the same thing to both.
  std::pair<std::string, std::function<void(Pred &)>> mutation(const Pred &P) {
    switch (R.below(14)) {
    case 0: {
      x86::Reg G = reg();
      const Expr *V = val();
      return {"setReg64", [=](Pred &Q) { Q.setReg64(G, V); }};
    }
    case 1: {
      x86::Reg G = reg();
      unsigned Sz = 1u << R.below(4);
      bool High = Sz == 1 && R.chance(1, 3);
      const Expr *V = Ctx.mkTrunc(val(), Sz * 8);
      return {"writeReg",
              [=, this](Pred &Q) { Q.writeReg(Ctx, G, Sz, High, V); }};
    }
    case 2: {
      const Expr *L = val(), *Rr = val();
      return {"setFlagsCmp", [=](Pred &Q) { Q.setFlagsCmp(L, Rr, 64); }};
    }
    case 3: {
      const Expr *L = val(), *Rr = val();
      return {"setFlagsTest", [=](Pred &Q) { Q.setFlagsTest(L, Rr, 64); }};
    }
    case 4: {
      const Expr *L = val();
      return {"setFlagsRes", [=](Pred &Q) { Q.setFlagsRes(L, 64); }};
    }
    case 5: {
      const Expr *L = val();
      return {"setFlagsZeroOf", [=](Pred &Q) { Q.setFlagsZeroOf(L, 64); }};
    }
    case 6:
      return {"clearFlags", [](Pred &Q) { Q.clearFlags(); }};
    case 7:
    case 8: {
      // Half the time overwrite an existing cell (the in-place branch).
      const Expr *A = addr();
      uint32_t Sz = size();
      if (!P.cells().empty() && R.chance(1, 2)) {
        const MemCell &C = R.pick(P.cells());
        A = C.Addr;
        Sz = C.Size;
      }
      const Expr *V = val();
      return {"setCell", [=](Pred &Q) { Q.setCell(A, Sz, V); }};
    }
    case 9: {
      const Expr *A = addr();
      uint32_t Sz = size();
      if (!P.cells().empty() && R.chance(2, 3)) {
        A = R.pick(P.cells()).Addr;
        Sz = R.pick(P.cells()).Size;
      }
      return {"removeCell", [=](Pred &Q) { Q.removeCell(A, Sz); }};
    }
    case 10: {
      uint64_t Salt = R.next();
      return {"filterCells", [=](Pred &Q) {
                Q.filterCells([Salt](const MemCell &C) {
                  return ((C.Addr->hashValue() ^ Salt) & 3) != 0;
                });
              }};
    }
    case 11: {
      const Expr *E = R.chance(1, 2) ? R.pick(Fresh) : val();
      RelOp O = op();
      uint64_t B = R.below(300);
      return {"addRange", [=](Pred &Q) { Q.addRange(E, O, B); }};
    }
    case 12: {
      const Expr *E = !P.ranges().empty() && R.chance(2, 3)
                          ? R.pick(P.ranges()).E
                          : val();
      return {"clearRangesFor", [=](Pred &Q) { Q.clearRangesFor(E); }};
    }
    default:
      return {"setBottom", [](Pred &Q) { Q.setBottom(); }};
    }
  }

  Pred randomPred(unsigned Steps) {
    Pred P = Pred::entry(Ctx);
    for (unsigned I = 0; I < Steps; ++I) {
      auto [Name, M] = mutation(P);
      if (Name != "setBottom")
        M(P);
    }
    return P;
  }

  Region region() { return Region{addr(), size()}; }
};

// --- Pred ---------------------------------------------------------------------

TEST(CowPred, CopyThenMutateNeverChangesTheOriginal) {
  World W(0xc0e);
  std::map<std::string, unsigned> Seen;
  for (unsigned Round = 0; Round < 400; ++Round) {
    Pred P = W.randomPred(static_cast<unsigned>(W.R.range(0, 12)));
    const PredSnap Orig = snap(P);
    const uint64_t OrigDigest = P.digest();
    const uint64_t OrigVersion = P.version();

    // A chain of mutations through a copy: the first one clones whichever
    // buffer it touches, later ones may hit the copy's own buffers.
    Pred C = P;
    Pred Ref = rebuild(Orig); // unshared deep copy
    for (unsigned Step = 0; Step < 3; ++Step) {
      auto [Name, M] = W.mutation(C);
      ++Seen[Name];
      M(C);
      M(Ref);
      ASSERT_EQ(snap(P), Orig) << Name << " through a copy changed the "
                                          "original (round " << Round << ")";
      ASSERT_EQ(P.digest(), OrigDigest) << Name;
      ASSERT_EQ(P.version(), OrigVersion) << Name;
      ASSERT_EQ(snap(C), snap(Ref)) << Name << " (round " << Round << ")";
      ASSERT_TRUE(C == Ref) << Name;
      ASSERT_EQ(C.digest(), Ref.digest()) << Name;
      ASSERT_EQ(C == P, snap(C) == Orig) << Name;
    }
  }
  EXPECT_EQ(Seen.size(), 13u) << "every mutator exercised";
}

TEST(CowPred, JoinResultsNeverWriteThroughToOperands) {
  World W(0x101e);
  for (unsigned Round = 0; Round < 200; ++Round) {
    Pred A = W.randomPred(static_cast<unsigned>(W.R.range(0, 10)));
    Pred B = W.randomPred(static_cast<unsigned>(W.R.range(0, 10)));
    if (W.R.chance(1, 4))
      A.setBottom(); // join returns a copy of B, sharing its buffers
    if (W.R.chance(1, 8))
      B.setBottom();
    const PredSnap SA = snap(A), SB = snap(B);
    for (bool Widen : {false, true}) {
      Pred J = Pred::join(W.Ctx, A, B, Widen);
      for (unsigned Step = 0; Step < 3; ++Step)
        W.mutation(J).second(J);
      ASSERT_EQ(snap(A), SA) << "round " << Round;
      ASSERT_EQ(snap(B), SB) << "round " << Round;
    }
  }
}

// --- MemModel -------------------------------------------------------------------

MemModel randomModel(World &W, const Pred &P) {
  MemModel M;
  M.Forest.mut().push_back(MemTree{{Region{W.Rsp0, 8}}, {}});
  unsigned N = static_cast<unsigned>(W.R.range(0, 5));
  for (unsigned I = 0; I < N; ++I) {
    std::vector<mem::InsertResult> Outs =
        M.insert(W.region(), P, W.Solver,
                 mem::UnknownPolicy::BranchAliasOrSep, W.Ctx);
    if (!Outs.empty())
      M = W.R.pick(Outs).Model;
    if (W.R.chance(1, 2))
      M.noteWrite(W.region());
  }
  M.HavocGlobals = W.R.chance(1, 6);
  return M;
}

TEST(CowMemModel, CopyThenMutateNeverChangesTheOriginal) {
  World W(0x3e3);
  Pred P = Pred::entry(W.Ctx);
  std::map<std::string, unsigned> Seen;
  for (unsigned Round = 0; Round < 300; ++Round) {
    MemModel M = randomModel(W, P);
    MemModel Other = randomModel(W, P);
    const MemSnap Orig = snap(M), OtherOrig = snap(Other);
    const uint64_t OrigDigest = M.digest();

    MemModel Ref = rebuild(Orig);
    std::string Name;
    MemModel C = M;
    switch (W.R.below(6)) {
    case 0: {
      Name = "noteWrite";
      Region R = W.region();
      if (!M.Clobbered.empty() && W.R.chance(1, 3))
        R = W.R.pick(*M.Clobbered); // already present: no write
      C.noteWrite(R);
      Ref.noteWrite(R);
      break;
    }
    case 1: {
      Name = "insert";
      Region R = W.region();
      std::vector<mem::InsertResult> Got = M.insert(
          R, P, W.Solver, mem::UnknownPolicy::BranchAliasOrSep, W.Ctx);
      std::vector<mem::InsertResult> Want = Ref.insert(
          R, P, W.Solver, mem::UnknownPolicy::BranchAliasOrSep, W.Ctx);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Got.size(); ++I) {
        ASSERT_EQ(snap(Got[I].Model), snap(Want[I].Model));
        ASSERT_EQ(Got[I].Model.digest(), Want[I].Model.digest());
      }
      // Outcomes share the source's clobber set; writing to one must not
      // reach the source.
      if (Got.empty())
        continue;
      C = Got.front().Model;
      Ref = rebuild(snap(Want.front().Model));
      Region R2 = W.region();
      C.noteWrite(R2);
      Ref.noteWrite(R2);
      break;
    }
    case 2: {
      Name = "join";
      C = MemModel::join(M, Other);
      Ref = MemModel::join(Ref, rebuild(OtherOrig));
      ASSERT_EQ(snap(C), snap(Ref));
      // The join shares M's clobber set until Other adds a region.
      Region R2 = W.region();
      C.noteWrite(R2);
      Ref.noteWrite(R2);
      break;
    }
    case 3: {
      Name = "Forest.mut";
      MemTree T{{W.region()}, {}};
      C.Forest.mut().push_back(T);
      Ref.Forest.mut().push_back(T);
      break;
    }
    case 4: {
      Name = "Forest.mut(child)";
      if (M.Forest.empty())
        continue;
      MemTree T{{W.region()}, {}};
      C.Forest.mut()[0].Children.push_back(T);
      Ref.Forest.mut()[0].Children.push_back(T);
      break;
    }
    default: {
      Name = "Clobbered.mut";
      C.Clobbered.mut().clear();
      C.HavocAll = true;
      Ref.Clobbered.mut().clear();
      Ref.HavocAll = true;
      break;
    }
    }
    ++Seen[Name];
    ASSERT_EQ(snap(M), Orig) << Name << " through a copy changed the original "
                             << "(round " << Round << ")";
    ASSERT_EQ(M.digest(), OrigDigest) << Name;
    ASSERT_EQ(snap(Other), OtherOrig) << Name;
    ASSERT_EQ(snap(C), snap(Ref)) << Name << " (round " << Round << ")";
    ASSERT_TRUE(C == Ref) << Name;
    ASSERT_EQ(C.digest(), Ref.digest()) << Name;
    ASSERT_EQ(MemModel::leq(C, M), MemModel::leq(Ref, rebuild(Orig))) << Name;
  }
  EXPECT_EQ(Seen.size(), 6u) << "every mutation exercised";
}

// --- Pred::leq: undo trail vs. the copying matcher ------------------------------

/// The abstraction order as it was before the undo trail: a failed memory-
/// cell candidate restores the whole binding map from a copy taken before
/// the attempt.
namespace reference {

Interval clauseInterval(RelOp Op, uint64_t Bound) {
  int64_t SB = static_cast<int64_t>(Bound);
  switch (Op) {
  case RelOp::Eq:
    return Interval(SB);
  case RelOp::ULt:
    if (Bound != 0 && Bound <= static_cast<uint64_t>(INT64_MAX))
      return Interval(0, SB - 1);
    return Interval::top();
  case RelOp::ULe:
    if (Bound <= static_cast<uint64_t>(INT64_MAX))
      return Interval(0, SB);
    return Interval::top();
  case RelOp::UGe:
  case RelOp::UGt:
    return Interval::top();
  case RelOp::SLt:
    if (SB == INT64_MIN)
      return Interval::empty();
    return Interval(INT64_MIN, SB - 1);
  case RelOp::SLe:
    return Interval(INT64_MIN, SB);
  case RelOp::SGe:
    return Interval(SB, INT64_MAX);
  case RelOp::SGt:
    if (SB == INT64_MAX)
      return Interval::empty();
    return Interval(SB + 1, INT64_MAX);
  case RelOp::Ne:
    return Interval::top();
  }
  return Interval::top();
}

struct Matcher {
  std::unordered_map<const Expr *, const Expr *> Binding;

  bool match(const Expr *EB, const Expr *EA) {
    if (EB == EA)
      return true;
    if (EB->isVar() && EB->hasFreshLeaf()) {
      auto It = Binding.find(EB);
      if (It != Binding.end())
        return It->second == EA;
      if (EB->width() != EA->width())
        return false;
      Binding.emplace(EB, EA);
      return true;
    }
    if (EB->kind() != EA->kind() || EB->width() != EA->width())
      return false;
    switch (EB->kind()) {
    case expr::ExprKind::Const:
    case expr::ExprKind::Var:
      return false;
    case expr::ExprKind::Deref:
      return EB->derefSize() == EA->derefSize() &&
             match(EB->derefAddr(), EA->derefAddr());
    case expr::ExprKind::Op: {
      if (EB->opcode() != EA->opcode() ||
          EB->operands().size() != EA->operands().size())
        return false;
      for (size_t I = 0; I < EB->operands().size(); ++I)
        if (!match(EB->operand(I), EA->operand(I)))
          return false;
      return true;
    }
    }
    return false;
  }

  bool containsBoundVar(const Expr *EB) const {
    if (EB->isVar())
      return Binding.count(EB) != 0;
    if (!EB->hasFreshLeaf())
      return false;
    if (EB->isOp() || EB->isDeref())
      for (const Expr *Op : EB->operands())
        if (containsBoundVar(Op))
          return true;
    return false;
  }

  Interval intervalInA(const Pred &A, const Expr *EB) {
    if (EB->isConst())
      return Interval(expr::signExtend(EB->constVal(), EB->width()));
    if (EB->isVar()) {
      auto It = Binding.find(EB);
      return A.intervalOf(It != Binding.end() ? It->second : EB);
    }
    if (!containsBoundVar(EB))
      return A.intervalOf(EB);
    if (EB->isOp()) {
      switch (EB->opcode()) {
      case expr::Opcode::Add:
        return intervalInA(A, EB->operand(0))
            .add(intervalInA(A, EB->operand(1)));
      case expr::Opcode::Sub:
        return intervalInA(A, EB->operand(0))
            .sub(intervalInA(A, EB->operand(1)));
      case expr::Opcode::Mul:
        if (EB->operand(1)->isConst())
          return intervalInA(A, EB->operand(0))
              .mul(expr::signExtend(EB->operand(1)->constVal(),
                                    EB->width()));
        break;
      default:
        break;
      }
    }
    if (!containsBoundVar(EB))
      return A.intervalOf(EB);
    return Interval::top();
  }
};

bool leq(const Pred &A, const Pred &B) {
  if (A.isBottom())
    return true;
  if (B.isBottom())
    return false;
  Matcher M;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    x86::Reg R = x86::regFromNum(I);
    if (!M.match(B.reg64(R), A.reg64(R)))
      return false;
  }
  const FlagState &FA = A.flags(), &FB = B.flags();
  if (FB.K != FlagState::Kind::Unknown) {
    if (FA.K != FB.K || FA.Width != FB.Width)
      return false;
    if (!M.match(FB.L, FA.L))
      return false;
    if (FB.R && (!FA.R || !M.match(FB.R, FA.R)))
      return false;
  }
  for (const MemCell &CB : B.cells()) {
    bool Found = false;
    for (const MemCell &CA : A.cells()) {
      if (CA.Size != CB.Size)
        continue;
      Matcher Saved = M;
      if (M.match(CB.Addr, CA.Addr) && M.match(CB.Val, CA.Val)) {
        Found = true;
        break;
      }
      M = Saved;
    }
    if (!Found)
      return false;
  }
  for (const RangeClause &C : B.ranges()) {
    Interval I = M.intervalInA(A, C.E);
    Interval Implied = clauseInterval(C.Op, C.Bound);
    bool OK = !I.isEmpty() && !I.isTop() && !Implied.isTop() &&
              Implied.contains(I);
    if (!OK && C.Op == RelOp::Ne && !I.isEmpty() &&
        !I.contains(static_cast<int64_t>(C.Bound)))
      OK = true;
    if (!OK && !M.containsBoundVar(C.E))
      for (const RangeClause &CA : A.ranges())
        if (CA.E == C.E && CA.Op == C.Op && CA.Bound == C.Bound) {
          OK = true;
          break;
        }
    if (!OK)
      return false;
  }
  return true;
}

/// MemModel's order written out as one plain check, the reference for
/// the walk leq() and leqExplain() share.
bool memLeq(const MemModel &A, const MemModel &B) {
  std::vector<mem::RegionRel> RA = A.relations();
  auto AssertedByA = [&](const mem::RegionRel &R) {
    for (const mem::RegionRel &S : RA) {
      if (S.R0 == R.R0 && S.R1 == R.R1 && S.Rel == R.Rel)
        return true;
      if (S.R0 == R.R1 && S.R1 == R.R0) {
        if (S.Rel == R.Rel &&
            (R.Rel == smt::MemRel::MustAlias || R.Rel == smt::MemRel::MustSep))
          return true;
        if ((S.Rel == smt::MemRel::MustEnc01 &&
             R.Rel == smt::MemRel::MustEnc10) ||
            (S.Rel == smt::MemRel::MustEnc10 &&
             R.Rel == smt::MemRel::MustEnc01))
          return true;
      }
    }
    return false;
  };
  for (const mem::RegionRel &R : B.relations())
    if (!AssertedByA(R))
      return false;
  if (A.HavocAll && !B.HavocAll)
    return false;
  if (A.HavocGlobals && !(B.HavocGlobals || B.HavocAll))
    return false;
  if (!B.HavocAll)
    for (const Region &R : A.Clobbered)
      if (std::find(B.Clobbered.begin(), B.Clobbered.end(), R) ==
          B.Clobbered.end())
        return false;
  return true;
}

} // namespace reference

/// leq, its reference and leqExplain must all tell the same story.
void expectLeqAgrees(const ExprContext &Ctx, const Pred &A, const Pred &B,
                     const std::string &What, unsigned &Holds) {
  bool Got = Pred::leq(A, B);
  ASSERT_EQ(Got, reference::leq(A, B))
      << What << "\nA: " << A.str(Ctx) << "\nB: " << B.str(Ctx);
  ASSERT_EQ(!Got, Pred::leqExplain(Ctx, A, B).has_value()) << What;
  Holds += Got;
}

/// The same for memory models; returns leqExplain's text.
std::string expectLeqAgrees(const ExprContext &Ctx, const MemModel &A,
                            const MemModel &B, const std::string &What,
                            unsigned &Holds) {
  bool Got = MemModel::leq(A, B);
  std::string Why = MemModel::leqExplain(Ctx, A, B);
  EXPECT_EQ(Got, reference::memLeq(A, B)) << What;
  EXPECT_EQ(Got, Why.empty()) << What << ": " << Why;
  Holds += Got;
  return Why;
}

TEST(LeqTrail, FailedCellCandidateLeavesNoBinding) {
  // B's cell *[f, 8] == 2 first tries A's *[rdi0, 8] == 1, binding f to
  // rdi0 before the value fails; that binding must be undone, or the
  // matching candidate *[rsi0, 8] == 2 is rejected.
  ExprContext Ctx;
  Pred A = Pred::entry(Ctx);
  const Expr *Rdi0 = A.reg64(x86::Reg::RDI), *Rsi0 = A.reg64(x86::Reg::RSI);
  A.setCell(Rdi0, 8, Ctx.mkConst(1, 64));
  A.setCell(Rsi0, 8, Ctx.mkConst(2, 64));
  Pred B = Pred::entry(Ctx);
  B.setCell(Ctx.mkFresh("f"), 8, Ctx.mkConst(2, 64));
  unsigned Holds = 0;
  expectLeqAgrees(Ctx, A, B, "targeted", Holds);
  EXPECT_EQ(Holds, 1u);
}

TEST(LeqTrail, MatchesCopyingMatcherOnRandomPairs) {
  World W(0x7a11);
  unsigned Holds = 0, Pairs = 0;
  for (unsigned Round = 0; Round < 1500; ++Round) {
    Pred Base = W.randomPred(static_cast<unsigned>(W.R.range(0, 8)));
    Pred A = Base, A2 = Base;
    for (unsigned I = 0, N = static_cast<unsigned>(W.R.range(0, 4)); I < N;
         ++I)
      W.mutation(A).second(A);
    for (unsigned I = 0, N = static_cast<unsigned>(W.R.range(0, 4)); I < N;
         ++I)
      W.mutation(A2).second(A2);
    // Joins introduce B-side fresh variables and range clauses, which is
    // what the matcher binds; the random side pairs are mostly refuted.
    Pred J = Pred::join(W.Ctx, A, A2, W.R.chance(1, 4));
    for (const auto &[X, Y] : {std::pair<const Pred *, const Pred *>{&A, &J},
                               {&A2, &J},
                               {&J, &A},
                               {&A, &A2},
                               {&Base, &A}}) {
      expectLeqAgrees(W.Ctx, *X, *Y, "round " + std::to_string(Round), Holds);
      ++Pairs;
    }
  }
  // Both outcomes must be well represented for the agreement to mean
  // anything.
  EXPECT_GT(Holds, Pairs / 10);
  EXPECT_LT(Holds, Pairs - Pairs / 10);
}

TEST(MemLeq, MatchesReferenceOnRandomPairs) {
  World W(0x3e4);
  Pred P = Pred::entry(W.Ctx);
  unsigned Holds = 0, Pairs = 0;
  std::map<std::string, unsigned> Why; // failures by kind
  for (unsigned Round = 0; Round < 400; ++Round) {
    MemModel A = randomModel(W, P), B = randomModel(W, P);
    A.HavocAll = W.R.chance(1, 10);
    MemModel J = MemModel::join(A, B);
    for (const auto &[X, Y] :
         {std::pair<const MemModel *, const MemModel *>{&A, &J},
          {&B, &J},
          {&J, &A},
          {&A, &B},
          {&B, &A}}) {
      std::string Text = expectLeqAgrees(W.Ctx, *X, *Y,
                                         "round " + std::to_string(Round),
                                         Holds);
      ++Pairs;
      for (const char *Kind : {"memory relation", "all of memory",
                               "global memory", "written region"})
        if (Text.find(Kind) != std::string::npos)
          ++Why[Kind];
    }
  }
  EXPECT_GT(Holds, Pairs / 10);
  EXPECT_LT(Holds, Pairs - Pairs / 10);
  EXPECT_EQ(Why.size(), 4u) << "every kind of failure explained";
}

TEST(LeqTrail, MatchesCopyingMatcherOnLiftedVertexStates) {
  std::vector<corpus::BuiltBinary> Bins;
  for (auto BB : {corpus::branchLoopBinary(), corpus::jumpTableBinary(),
                  corpus::callChainBinary(), corpus::maskedTableBinary()})
    if (BB)
      Bins.push_back(*BB);
  for (uint64_t Seed : {3, 11}) {
    corpus::GenOptions O;
    O.Seed = Seed;
    O.NumFuncs = 3;
    O.ArgWritePct = 20;
    if (auto BB = corpus::randomLibrary(O))
      Bins.push_back(*BB);
  }
  ASSERT_GE(Bins.size(), 5u);

  unsigned Holds = 0, Pairs = 0;
  for (const corpus::BuiltBinary &BB : Bins) {
    hg::BinaryResult R = BB.Img.Functions.empty()
                             ? hg::Lifter(BB.Img, hg::LiftConfig()).liftBinary()
                             : hg::Lifter(BB.Img, hg::LiftConfig()).liftLibrary();
    for (const hg::FunctionResult &F : R.Functions) {
      ASSERT_TRUE(F.Arena);
      std::vector<const Pred *> States;
      for (const auto &[K, V] : F.Graph.Vertices)
        States.push_back(&V.State.P);
      // Every ordered pair of a function's vertex states (capped).
      size_t N = std::min<size_t>(States.size(), 120);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J) {
          expectLeqAgrees(F.Arena->ctx(), *States[I], *States[J],
                          BB.Img.Name, Holds);
          ++Pairs;
        }
    }
  }
  EXPECT_GT(Pairs, 2000u);
  EXPECT_GT(Holds, 0u);
}

// --- join keeps an equal forest -------------------------------------------------

/// The general forest join (MemModel.cpp's joinForests: Definition 3.12
/// with one-sided classes dropped), run on every pair: the reference for
/// the join that keeps A's forest.
std::vector<MemTree> refJoinForests(const std::vector<MemTree> &FA,
                                    const std::vector<MemTree> &FB) {
  auto Share = [](const MemTree &A, const MemTree &B) {
    for (const Region &R : A.Node)
      for (const Region &S : B.Node)
        if (R == S)
          return true;
    return false;
  };
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
              Share(*Entries[J].T, *Entries[K].T)) {
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
      continue;
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
    std::vector<MemTree> Kids = InClass[0]->Children;
    for (size_t I = 1; I < InClass.size(); ++I)
      Kids = refJoinForests(Kids, InClass[I]->Children);
    Out.push_back(MemTree{std::move(Node), std::move(Kids)});
  }
  return Out;
}

MemSnap refJoin(const MemModel &A, const MemModel &B) {
  constexpr size_t MaxClobbered = 256; // MemModel::MaxClobbered
  MemSnap J;
  J.Forest = refJoinForests(*A.Forest, *B.Forest);
  J.HavocAll = A.HavocAll || B.HavocAll;
  J.HavocGlobals = A.HavocGlobals || B.HavocGlobals;
  if (!J.HavocAll) {
    J.Clobbered = *A.Clobbered;
    for (const Region &R : B.Clobbered) {
      if (std::find(J.Clobbered.begin(), J.Clobbered.end(), R) ==
          J.Clobbered.end())
        J.Clobbered.push_back(R);
      if (J.Clobbered.size() > MaxClobbered) {
        J.HavocAll = true;
        J.Clobbered.clear();
        break;
      }
    }
  }
  return J;
}

struct JoinTally {
  unsigned Pairs = 0, Kept = 0;
};

/// join(A, B) equals the reference join, and its forest shares A's buffer
/// exactly when B's forest equals A's and the reference self-join of A's
/// forest is A's forest.
void expectJoinMatchesReference(const MemModel &A, const MemModel &B,
                                const std::string &Where, JoinTally &T) {
  const MemSnap Want = refJoin(A, B);
  const MemModel J = MemModel::join(A, B);
  ++T.Pairs;
  ASSERT_EQ(snap(J), Want) << Where;
  EXPECT_EQ(J.digest(), rebuild(Want).digest()) << Where;
  const bool Identity = *A.Forest == *B.Forest &&
                        refJoinForests(*A.Forest, *A.Forest) == *A.Forest;
  EXPECT_EQ(J.Forest.sharesWith(A.Forest), Identity) << Where;
  T.Kept += Identity;
}

/// Plant a defect the self-join does not survive at depth Depth of F (or
/// as deep as F reaches): an empty node, or a tree that shares a region
/// with a sibling.
void plant(std::vector<MemTree> &F, unsigned Depth, bool EmptyNode,
           World &W) {
  std::vector<MemTree> *Level = &F;
  for (unsigned D = 0; D < Depth && !Level->empty(); ++D)
    Level = &(*Level)[W.R.below(Level->size())].Children;
  if (EmptyNode) {
    Level->push_back(MemTree{{}, {}});
    return;
  }
  Region Shared = W.region();
  if (!Level->empty() && !Level->front().Node.empty())
    Shared = W.R.pick(Level->front().Node);
  else
    Level->push_back(MemTree{{Shared}, {}});
  Level->push_back(MemTree{{W.region(), Shared}, {}});
}

TEST(MemJoin, KeepsEqualForestOnRandomPairs) {
  World W(0x10f7);
  Pred P = Pred::entry(W.Ctx);
  JoinTally T;
  for (unsigned Round = 0; Round < 400; ++Round) {
    const std::string Where = "round " + std::to_string(Round);
    MemModel A = randomModel(W, P);
    MemModel Shared = A;               // same buffers
    MemModel Equal = rebuild(snap(A)); // equal contents, own buffers
    Equal.noteWrite(W.region());
    MemModel Other = randomModel(W, P);
    MemModel Bigger = A;
    Bigger.Forest.mut().push_back(MemTree{{W.region()}, {}});
    for (const MemModel *B : {&Shared, &Equal, &Other, &Bigger}) {
      expectJoinMatchesReference(A, *B, Where, T);
      expectJoinMatchesReference(*B, A, Where, T);
    }
  }
  EXPECT_GT(T.Kept, T.Pairs / 4);
  EXPECT_LT(T.Kept, T.Pairs - T.Pairs / 4);
}

TEST(MemJoin, RebuildsForestsWhoseSelfJoinIsNotTheIdentity) {
  World W(0x10f8);
  Pred P = Pred::entry(W.Ctx);
  Region R0{W.Rsp0, 8}, R1{W.Rdi0, 8}, R2{W.Ctx.mkAddK(W.Rdi0, 8), 8},
      R3{W.Ctx.mkAddK(W.Rsp0, -16), 8};
  auto Leaf = [](std::vector<Region> Node) {
    return MemTree{std::move(Node), {}};
  };
  // Each defect at the top level and at depths 1 and 2.
  const std::vector<std::pair<std::string, std::vector<MemTree>>> Cases = {
      {"empty node", {Leaf({}), Leaf({R1})}},
      {"empty child", {MemTree{{R0}, {Leaf({R1}), Leaf({})}}}},
      {"empty grandchild",
       {MemTree{{R0}, {MemTree{{R1}, {Leaf({})}}}}, Leaf({R3})}},
      {"sharing siblings", {Leaf({R0, R1}), Leaf({R2, R1})}},
      {"sharing children", {MemTree{{R0}, {Leaf({R1}), Leaf({R1, R2})}}}},
      {"sharing grandchildren",
       {Leaf({R3}), MemTree{{R0}, {MemTree{{R2}, {Leaf({R1}), Leaf({R1})}}}}}},
  };
  JoinTally T;
  for (const auto &[Name, Forest] : Cases) {
    ASSERT_NE(refJoinForests(Forest, Forest), Forest) << Name;
    MemModel A;
    A.Forest = Forest;
    MemModel Shared = A, Equal = rebuild(snap(A));
    expectJoinMatchesReference(A, Shared, Name, T);
    expectJoinMatchesReference(A, Equal, Name, T);
  }
  // The same defects planted into random forests, at random depths.
  for (unsigned Round = 0; Round < 300; ++Round) {
    MemModel A = randomModel(W, P);
    plant(A.Forest.mut(), static_cast<unsigned>(W.R.below(3)),
          W.R.chance(1, 2), W);
    MemModel Shared = A, Equal = rebuild(snap(A));
    const std::string Where = "planted round " + std::to_string(Round);
    expectJoinMatchesReference(A, Shared, Where, T);
    expectJoinMatchesReference(A, Equal, Where, T);
  }
  EXPECT_EQ(T.Kept, 0u) << "no defective forest may be kept";
}

TEST(MemJoin, MatchesReferenceOnLiftedArrivals) {
  std::vector<corpus::BuiltBinary> Bins;
  for (auto BB : {corpus::branchLoopBinary(), corpus::jumpTableBinary(),
                  corpus::callChainBinary(), corpus::maskedTableBinary()})
    if (BB)
      Bins.push_back(*BB);
  for (uint64_t Seed : {3, 11}) {
    corpus::GenOptions O;
    O.Seed = Seed;
    O.NumFuncs = 3;
    O.ArgWritePct = 20;
    if (auto BB = corpus::randomLibrary(O))
      Bins.push_back(*BB);
  }
  ASSERT_GE(Bins.size(), 5u);

  // Re-step every explored vertex of the final graph and join each
  // successor into every vertex at its target, as Algorithm 1 does.
  JoinTally T;
  for (const corpus::BuiltBinary &BB : Bins) {
    hg::BinaryResult R = BB.Img.Functions.empty()
                             ? hg::Lifter(BB.Img, hg::LiftConfig()).liftBinary()
                             : hg::Lifter(BB.Img, hg::LiftConfig()).liftLibrary();
    for (hg::FunctionResult &F : R.Functions) {
      ASSERT_TRUE(F.Arena);
      for (const auto &[K, V] : F.Graph.Vertices) {
        if (!V.Explored)
          continue;
        sem::StepOut Out = F.Arena->exec().step(V.State, V.Instr, F.RetSym);
        for (const sem::Succ &S : Out.Succs)
          for (auto It = F.Graph.Vertices.lower_bound(hg::VertexKey{S.NextAddr, 0});
               It != F.Graph.Vertices.end() && It->first.Rip == S.NextAddr;
               ++It)
            expectJoinMatchesReference(It->second.State.M, S.S.M,
                                       BB.Img.Name, T);
      }
    }
  }
  EXPECT_GT(T.Pairs, 500u);
  EXPECT_GT(T.Kept, T.Pairs / 2) << "most arrivals bring the vertex's forest";
}

} // namespace
