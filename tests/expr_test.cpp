//===- expr_test.cpp - Expression interning, simplifier, linearizer ------===//

#include "expr/Eval.h"
#include "expr/ExprContext.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::Opcode;
using expr::VarClass;

namespace {

TEST(Expr, InterningSharesNodes) {
  ExprContext Ctx;
  const Expr *A = Ctx.mkConst(42, 64);
  const Expr *B = Ctx.mkConst(42, 64);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, Ctx.mkConst(42, 32)) << "width distinguishes constants";

  const Expr *X = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *S1 = Ctx.mkAdd(X, A);
  const Expr *S2 = Ctx.mkAdd(X, B);
  EXPECT_EQ(S1, S2);
}

TEST(Expr, ConstFolding) {
  ExprContext Ctx;
  auto C = [&](uint64_t V) { return Ctx.mkConst(V, 64); };
  EXPECT_EQ(Ctx.mkAdd(C(2), C(3)), C(5));
  EXPECT_EQ(Ctx.mkSub(C(2), C(3)), C(static_cast<uint64_t>(-1)));
  EXPECT_EQ(Ctx.mkBin(Opcode::Mul, C(7), C(6)), C(42));
  EXPECT_EQ(Ctx.mkBin(Opcode::UDiv, C(42), C(5)), C(8));
  EXPECT_EQ(Ctx.mkBin(Opcode::And, C(0xf0), C(0x3c)), C(0x30));
  // Division by zero does not fold (and does not crash).
  const Expr *D = Ctx.mkBin(Opcode::UDiv, C(1), C(0));
  EXPECT_TRUE(D->isOp());
}

TEST(Expr, AdditiveNormalForm) {
  ExprContext Ctx;
  const Expr *X = Ctx.mkVar(VarClass::StackBase, "rsp0");
  // ((x + 8) - 24) + 4  ->  x - 12
  const Expr *E = Ctx.mkAddK(Ctx.mkAddK(Ctx.mkAddK(X, 8), -24), 4);
  expr::LinearForm LF = expr::linearize(E);
  ASSERT_EQ(LF.Terms.size(), 1u);
  EXPECT_EQ(LF.Terms[0].first, 1);
  EXPECT_EQ(LF.Terms[0].second, X);
  EXPECT_EQ(LF.Constant, -12);
  // And the expression itself is in `x + k` shape.
  ASSERT_TRUE(E->isOp());
  EXPECT_EQ(E->opcode(), Opcode::Add);
  EXPECT_EQ(E->operand(0), X);
}

TEST(Expr, SubToAddCanonicalization) {
  ExprContext Ctx;
  const Expr *X = Ctx.mkVar(VarClass::InitReg, "rax0");
  const Expr *E = Ctx.mkSub(X, Ctx.mkConst(8, 64));
  // x - 8 == x + (-8); both spellings intern identically.
  EXPECT_EQ(E, Ctx.mkAddK(X, -8));
  EXPECT_EQ(Ctx.mkSub(X, X), Ctx.mkConst(0, 64));
}

TEST(Expr, WidthChanging) {
  ExprContext Ctx;
  const Expr *X = Ctx.mkVar(VarClass::InitReg, "rax0", 64);
  const Expr *T = Ctx.mkTrunc(X, 32);
  EXPECT_EQ(T->width(), 32);
  EXPECT_EQ(Ctx.mkTrunc(Ctx.mkZExt(T, 64), 32), T)
      << "trunc(zext(x)) == x at matching width";
  EXPECT_EQ(Ctx.mkZExt(X, 64), X) << "zext to same width is identity";
  EXPECT_EQ(Ctx.mkConst(0xffffffffcafe0000ull, 32)->constVal(), 0xcafe0000u);
}

TEST(Expr, LinearizeScaledIndex) {
  ExprContext Ctx;
  const Expr *B = Ctx.mkVar(VarClass::StackBase, "rsp0");
  const Expr *I = Ctx.mkVar(VarClass::InitReg, "rdi0");
  // rsp0 + 4*rdi0 - 24 via shl: (rdi0 << 2) normalizes to rdi0 * 4.
  const Expr *Scaled =
      Ctx.mkBin(Opcode::Shl, I, Ctx.mkConst(2, 64));
  const Expr *E = Ctx.mkAddK(Ctx.mkAdd(B, Scaled), -24);
  expr::LinearForm LF = expr::linearize(E);
  ASSERT_EQ(LF.Terms.size(), 2u);
  EXPECT_EQ(LF.Constant, -24);
  std::map<const Expr *, int64_t> Coeffs;
  for (auto &[C, A] : LF.Terms)
    Coeffs[A] = C;
  EXPECT_EQ(Coeffs[B], 1);
  EXPECT_EQ(Coeffs[I], 4);
}

TEST(Expr, LinearizeWrapsModulo2To64) {
  // Coefficients and constants wrap like the expressions they come from.
  // 4 * (x + 2^61) carries the constant 4 * 2^61 = 2^63, one past
  // INT64_MAX: computed in int64_t that product was undefined behaviour
  // (the sanitized build stopped on exactly this multiplication).
  ExprContext Ctx;
  const Expr *X = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *E = Ctx.mkBin(Opcode::Mul, Ctx.mkAddK(X, 0x2000000000000000),
                            Ctx.mkConst(4, 64));
  expr::LinearForm LF = expr::linearize(E);
  ASSERT_EQ(LF.Terms.size(), 1u);
  EXPECT_EQ(LF.Terms[0].first, 4);
  EXPECT_EQ(LF.Terms[0].second, X);
  EXPECT_EQ(static_cast<uint64_t>(LF.Constant), 0x8000000000000000ull);

  // Negating the most negative coefficient, and a coefficient sum that
  // wraps to zero, which drops the term.
  const Expr *Min = Ctx.mkConst(0x8000000000000000ull, 64);
  expr::LinearForm N = expr::linearize(
      Ctx.mkOp(Opcode::Neg, {Ctx.mkBin(Opcode::Mul, X, Min)}, 64));
  ASSERT_EQ(N.Terms.size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(N.Terms[0].first), 0x8000000000000000ull);
  expr::LinearForm Z = expr::linearize(
      Ctx.mkAdd(Ctx.mkBin(Opcode::Mul, X, Min), Ctx.mkBin(Opcode::Mul, X, Min)));
  EXPECT_TRUE(Z.Terms.empty());
  EXPECT_EQ(Z.Constant, 0);
}

TEST(Expr, FreshNamesSkipRegisteredNames) {
  // A deserialized context already holds the producer's variables; a fresh
  // name must never reuse one of them. Names otherwise stay Hint#counter
  // with one counter shared by every hint.
  ExprContext Ctx;
  const Expr *Pre = Ctx.mkVar(VarClass::Fresh, "hint#0");
  const Expr *F = Ctx.mkFresh("hint");
  EXPECT_NE(F, Pre);
  EXPECT_EQ(Ctx.varInfo(F->varId()).Name, "hint#1");
  EXPECT_EQ(Ctx.varInfo(F->varId()).Cls, VarClass::Fresh);
  EXPECT_TRUE(F->hasFreshLeaf());
  EXPECT_EQ(Ctx.varInfo(Ctx.mkFresh("other")->varId()).Name, "other#2");
  Ctx.mkVar(VarClass::InitReg, "x#3");
  Ctx.mkVar(VarClass::InitReg, "x#4");
  const Expr *X = Ctx.mkFresh("x", 32);
  EXPECT_EQ(Ctx.varInfo(X->varId()).Name, "x#5");
  EXPECT_EQ(X->width(), 32u);
  EXPECT_EQ(Ctx.numVars(), 6u) << "one variable per distinct name";
  EXPECT_EQ(Ctx.mkVar(VarClass::Fresh, "hint#1"), F)
      << "mkVar of a fresh name is the same interned variable";
}

/// Minting through the name map and the intern table: each fresh name is
/// the first Hint#N, N counting up, that no variable has, and is then
/// registered like any other. The names are kept here; ids, nodes, hashes
/// and counts come from a second context that only ever sees mkVar.
struct RefMinter {
  ExprContext Nodes;
  std::set<std::string> Names;
  uint64_t Counter = 0;

  const Expr *var(VarClass Cls, const std::string &Name, unsigned Width) {
    Names.insert(Name);
    return Nodes.mkVar(Cls, Name, Width);
  }
  const Expr *fresh(const std::string &Hint, unsigned Width) {
    std::string Name;
    do
      Name = Hint + "#" + std::to_string(Counter++);
    while (Names.count(Name));
    return var(VarClass::Fresh, Name, Width);
  }
};

TEST(ExprProperty, FreshMintingMatchesMapReference) {
  // Random interleavings of mkFresh, mkVar of names with and without '#'
  // (minted ones among them) in every class, and counter rewinds and jumps.
  const std::string Hints[] = {"j_rax", "mem", "a", "a#1", "x#"};
  const unsigned Widths[] = {64, 32, 8, 1};
  unsigned Minted = 0, Refound = 0, Skips = 0, Rewinds = 0;
  for (uint64_t Seed : {1, 2, 3, 4}) {
    ExprContext Ctx;
    RefMinter Ref;
    Rng R(0xf2e5 + Seed);
    std::vector<std::pair<std::string, const Expr *>> Fresh; // name, node
    for (unsigned Op = 0; Op < 1500; ++Op) {
      const std::string Where =
          "seed " + std::to_string(Seed) + " op " + std::to_string(Op);
      const Expr *Got = nullptr, *Want = nullptr;
      const uint64_t Before = Ref.Counter;
      switch (R.below(8)) {
      case 0:
      case 1:
      case 2: {
        const std::string &Hint = Hints[R.below(std::size(Hints))];
        unsigned W = Widths[R.below(std::size(Widths))];
        Got = Ctx.mkFresh(Hint, W);
        Want = Ref.fresh(Hint, W);
        Fresh.emplace_back(Ctx.varInfo(Got->varId()).Name, Got);
        Skips += Ref.Counter - Before - 1;
        ++Minted;
        break;
      }
      case 3: // a minted name, sometimes at another width
        if (Fresh.empty())
          continue;
        {
          const auto &[Name, Node] = R.pick(Fresh);
          VarClass Cls = static_cast<VarClass>(R.below(6));
          unsigned W = R.chance(3, 4) ? Node->width() : 64;
          Got = Ctx.mkVar(Cls, Name, W);
          Want = Ref.var(Cls, Name, W);
          if (W == Node->width()) {
            EXPECT_EQ(Got, Node) << Where << ": mkVar of " << Name;
            ++Refound;
          }
        }
        break;
      case 4:
      case 5: { // a '#' name near the counter: a later mint must skip it
        std::string Name = Hints[R.below(std::size(Hints))] + "#" +
                           std::to_string(Ref.Counter + R.below(6));
        VarClass Cls = static_cast<VarClass>(R.below(6));
        Got = Ctx.mkVar(Cls, Name, 64);
        Want = Ref.var(Cls, Name, 64);
        break;
      }
      case 6: { // a plain name
        std::string Name = "v" + std::to_string(R.below(20));
        VarClass Cls = static_cast<VarClass>(R.below(6));
        Got = Ctx.mkVar(Cls, Name, 64);
        Want = Ref.var(Cls, Name, 64);
        break;
      }
      default: { // rewind or jump the counter
        uint64_t C = R.chance(1, 2) ? Ref.Counter - std::min<uint64_t>(
                                                        Ref.Counter, R.below(8))
                                    : Ref.Counter + R.below(4);
        Rewinds += C < Ref.Counter;
        Ctx.setFreshCounter(C);
        Ref.Counter = C;
        EXPECT_EQ(Ctx.freshCounter(), C) << Where;
        continue;
      }
      }
      ASSERT_EQ(Got->varId(), Want->varId()) << Where;
      EXPECT_EQ(Ctx.varInfo(Got->varId()).Name,
                Ref.Nodes.varInfo(Want->varId()).Name)
          << Where;
      EXPECT_EQ(Ctx.varInfo(Got->varId()).Cls,
                Ref.Nodes.varInfo(Want->varId()).Cls)
          << Where;
      EXPECT_EQ(Got->width(), Want->width()) << Where;
      EXPECT_EQ(Got->hasFreshLeaf(), Want->hasFreshLeaf()) << Where;
      ASSERT_EQ(Got->hashValue(), Want->hashValue()) << Where;
      ASSERT_EQ(Ctx.freshCounter(), Ref.Counter) << Where;
      ASSERT_EQ(Ctx.numVars(), Ref.Nodes.numVars()) << Where;
      ASSERT_EQ(Ctx.numExprs(), Ref.Nodes.numExprs()) << Where;
    }
    // Minted nodes hash and compare like interned ones inside operators.
    for (const auto &[Name, Node] : Fresh)
      EXPECT_EQ(Ctx.mkAdd(Ctx.mkZExt(Node, 64), Ctx.mkConst(1, 64)),
                Ctx.mkAdd(Ctx.mkConst(1, 64), Ctx.mkZExt(Node, 64)))
          << Name;
  }
  // Every case must actually occur for the agreement to mean anything.
  EXPECT_GT(Minted, 1000u);
  EXPECT_GT(Refound, 200u);
  EXPECT_GT(Skips, 50u);
  EXPECT_GT(Rewinds, 50u);
}

TEST(Expr, TreeSizeAndFreshness) {
  ExprContext Ctx;
  const Expr *F = Ctx.mkFresh("tmp");
  EXPECT_TRUE(F->hasFreshLeaf());
  const Expr *G = Ctx.mkFresh("tmp");
  EXPECT_NE(F, G) << "each mkFresh is a distinct variable";
  const Expr *X = Ctx.mkVar(VarClass::InitReg, "rbx0");
  EXPECT_FALSE(X->hasFreshLeaf());
  EXPECT_TRUE(Ctx.mkAdd(X, F)->hasFreshLeaf());
  EXPECT_GT(Ctx.mkAdd(X, F)->treeSize(), X->treeSize());
}

// --- property: every simplification is semantics-preserving --------------

struct RandomExprGen {
  ExprContext &Ctx;
  Rng &R;
  std::vector<const Expr *> Leaves;

  const Expr *gen(unsigned Depth) {
    if (Depth == 0 || R.chance(1, 4)) {
      if (R.chance(1, 2))
        return Ctx.mkConst(R.next() & 0xffff, 64);
      return R.pick(Leaves);
    }
    static const Opcode Bins[] = {Opcode::Add,  Opcode::Sub,  Opcode::Mul,
                                  Opcode::And,  Opcode::Or,   Opcode::Xor,
                                  Opcode::Shl,  Opcode::LShr, Opcode::AShr,
                                  Opcode::UDiv, Opcode::URem};
    Opcode Op = Bins[R.below(std::size(Bins))];
    return Ctx.mkOp(Op, {gen(Depth - 1), gen(Depth - 1)}, 64);
  }
};

TEST(ExprProperty, SimplifierSoundVsConcreteEval) {
  ExprContext Ctx;
  Rng R(0x51a9);
  std::vector<const Expr *> Leaves;
  for (int I = 0; I < 4; ++I)
    Leaves.push_back(
        Ctx.mkVar(VarClass::InitReg, "v" + std::to_string(I)));
  RandomExprGen Gen{Ctx, R, Leaves};

  for (int Iter = 0; Iter < 3000; ++Iter) {
    // Build the same random tree twice: once through the simplifying
    // factories, once evaluating operand values concretely alongside.
    const Expr *E = Gen.gen(4);
    uint64_t Vals[4];
    for (auto &V : Vals)
      V = R.next();
    auto Valuation = [&](uint32_t Id) {
      const std::string &N = Ctx.varInfo(Id).Name;
      return Vals[N[1] - '0'];
    };
    auto V1 = expr::evalExpr(E, Valuation);
    if (!V1)
      continue; // division by zero somewhere: undefined, nothing to check
    // Re-evaluating must be deterministic.
    auto V2 = expr::evalExpr(E, Valuation);
    ASSERT_TRUE(V2.has_value());
    EXPECT_EQ(*V1, *V2);
  }
}

TEST(ExprProperty, LinearizeAgreesWithEval) {
  ExprContext Ctx;
  Rng R(0x11ea);
  std::vector<const Expr *> Leaves;
  for (int I = 0; I < 4; ++I)
    Leaves.push_back(
        Ctx.mkVar(VarClass::InitReg, "v" + std::to_string(I)));

  for (int Iter = 0; Iter < 2000; ++Iter) {
    // Random linear combination built from adds/subs/muls-by-const.
    const Expr *E = Ctx.mkConst(static_cast<uint64_t>(R.range(-50, 50)), 64);
    for (int T = 0; T < 4; ++T) {
      const Expr *Term = R.pick(Leaves);
      int64_t K = R.range(-8, 8);
      Term = Ctx.mkBin(Opcode::Mul, Term,
                       Ctx.mkConst(static_cast<uint64_t>(K), 64));
      E = R.chance(1, 2) ? Ctx.mkAdd(E, Term) : Ctx.mkSub(E, Term);
    }
    expr::LinearForm LF = expr::linearize(E);

    uint64_t Vals[4];
    for (auto &V : Vals)
      V = R.next();
    auto Valuation = [&](uint32_t Id) {
      return Vals[Ctx.varInfo(Id).Name[1] - '0'];
    };
    // Reconstruct from the linear form.
    uint64_t Recon = static_cast<uint64_t>(LF.Constant);
    for (auto &[C, A] : LF.Terms)
      Recon += static_cast<uint64_t>(C) * *expr::evalExpr(A, Valuation);
    EXPECT_EQ(Recon, *expr::evalExpr(E, Valuation));
  }
}

TEST(ExprProperty, DerefEvaluatesThroughOracle) {
  ExprContext Ctx;
  const Expr *A = Ctx.mkVar(VarClass::StackBase, "rsp0");
  const Expr *D = Ctx.mkDeref(Ctx.mkAddK(A, 16), 4);
  auto Vars = [](uint32_t) { return uint64_t(0x1000); };
  auto Mem = [](uint64_t Addr, uint32_t Size) -> uint64_t {
    EXPECT_EQ(Addr, 0x1010u);
    EXPECT_EQ(Size, 4u);
    return 0x1234567890ull; // oracle may return wide; eval masks
  };
  auto V = expr::evalExpr(D, Vars, Mem);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 0x34567890u);
}

} // namespace
