#include "expr/ExprContext.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>

namespace hglift::expr {

const char *opcodeName(Opcode Opc) {
  switch (Opc) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::URem:
    return "urem";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::Not:
    return "not";
  case Opcode::Neg:
    return "neg";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::Eq:
    return "eq";
  case Opcode::Ne:
    return "ne";
  case Opcode::ULt:
    return "ult";
  case Opcode::ULe:
    return "ule";
  case Opcode::SLt:
    return "slt";
  case Opcode::SLe:
    return "sle";
  case Opcode::Ite:
    return "ite";
  }
  return "?";
}

bool isCommutative(Opcode Opc) {
  switch (Opc) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Eq:
  case Opcode::Ne:
    return true;
  default:
    return false;
  }
}

bool isComparison(Opcode Opc) {
  switch (Opc) {
  case Opcode::Eq:
  case Opcode::Ne:
  case Opcode::ULt:
  case Opcode::ULe:
  case Opcode::SLt:
  case Opcode::SLe:
    return true;
  default:
    return false;
  }
}

bool ExprContext::KeyEq::operator()(const Expr *A, const Expr *B) const {
  if (A->kind() != B->kind() || A->width() != B->width())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return A->constVal() == B->constVal();
  case ExprKind::Var:
    return A->varId() == B->varId();
  case ExprKind::Op:
    return A->opcode() == B->opcode() && A->operands() == B->operands();
  case ExprKind::Deref:
    return A->derefAddr() == B->derefAddr() &&
           A->derefSize() == B->derefSize();
  }
  return false;
}

namespace {

uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 12) + (H >> 4);
  return H;
}

} // namespace

ExprContext::ExprContext() = default;

uint64_t ExprContext::hashOf(const Expr &E) {
  uint64_t H =
      hashCombine(static_cast<uint64_t>(E.Kind) * 0x100 + E.Width, E.ConstVal);
  H = hashCombine(H, static_cast<uint64_t>(E.Opc));
  H = hashCombine(H, E.VarId);
  H = hashCombine(H, E.DerefSize);
  for (const Expr *Op : E.Ops)
    H = hashCombine(H, Op->hashValue());
  return H;
}

const Expr *ExprContext::intern(Expr &&Proto) {
  Proto.Hash = hashOf(Proto);
  auto It = Interned.find(&Proto);
  if (It != Interned.end())
    return It->second;
  Nodes.push_back(std::move(Proto));
  const Expr *Stored = &Nodes.back();
  Interned.emplace(Stored, Stored);
  return Stored;
}

const Expr *ExprContext::mkConst(uint64_t V, unsigned Width) {
  assert(Width >= 1 && Width <= 64 && "bad width");
  Expr E;
  E.Kind = ExprKind::Const;
  E.Width = static_cast<uint8_t>(Width);
  E.ConstVal = maskToWidth(V, Width);
  E.Size = 1;
  E.HasFresh = false;
  return intern(std::move(E));
}

const Expr *ExprContext::mkVar(VarClass Cls, const std::string &Name,
                               unsigned Width, uint64_t Aux) {
  // Only a name with a '#' can be a minted one (index those first, so the
  // lookup finds them) or collide with a later mint (so mkFresh must probe).
  const bool Hashed = Name.find('#') != std::string::npos;
  if (Hashed)
    indexMinted();
  auto [It, New] =
      VarByName.try_emplace(Name, static_cast<uint32_t>(Vars.size()));
  if (New) {
    Vars.push_back(VarInfo{Cls, Name, Aux});
    ProbeNames |= Hashed;
  }
  return intern(varProto(It->second, Width, Cls));
}

const Expr *ExprContext::mkFresh(const std::string &Hint, unsigned Width) {
  // Skip names that already exist: a deserialized context carries the
  // producer's variables, and reusing one of them would silently break the
  // freshness guarantee the caller relies on. Minted names cannot collide
  // with each other: the counter value is what follows the last '#', and
  // it only moves forward between rewinds. So a candidate can only equal a
  // name mkVar registered with a '#' in it, or one minted before a rewind,
  // and the map is probed only once such a name exists (ProbeNames).
  std::string Name = Hint + "#";
  const size_t Stem = Name.size();
  do {
    Name.resize(Stem);
    Name += std::to_string(FreshCounter++);
  } while (ProbeNames && VarByName.count(Name));
  const uint32_t Id = static_cast<uint32_t>(Vars.size());
  Vars.push_back(VarInfo{VarClass::Fresh, std::move(Name), 0});
  // A new id has no node yet: store it without probing Interned.
  Expr E = varProto(Id, Width, VarClass::Fresh);
  E.Hash = hashOf(E);
  Nodes.push_back(std::move(E));
  Minted.push_back(&Nodes.back());
  return &Nodes.back();
}

void ExprContext::setFreshCounter(uint64_t C) {
  // A rewound counter can reach the names it minted before.
  if (C < FreshCounter) {
    indexMinted();
    ProbeNames = true;
  }
  FreshCounter = C;
}

void ExprContext::indexMinted() {
  for (const Expr *E : Minted) {
    VarByName.emplace(Vars[E->varId()].Name, E->varId());
    Interned.emplace(E, E);
  }
  Minted.clear();
}

Expr ExprContext::varProto(uint32_t Id, unsigned Width, VarClass Cls) {
  Expr E;
  E.Kind = ExprKind::Var;
  E.Width = static_cast<uint8_t>(Width);
  E.VarId = Id;
  E.Size = 1;
  E.HasFresh = (Cls == VarClass::Fresh || Cls == VarClass::External);
  return E;
}

const Expr *ExprContext::mkDeref(const Expr *Addr, uint32_t SizeBytes) {
  Expr E;
  E.Kind = ExprKind::Deref;
  E.Width = static_cast<uint8_t>(SizeBytes >= 8 ? 64 : SizeBytes * 8);
  E.Ops = {Addr};
  E.DerefSize = SizeBytes;
  E.Size = Addr->treeSize() + 1;
  E.HasFresh = Addr->hasFreshLeaf();
  return intern(std::move(E));
}

namespace {

/// Concrete fold of a binary opcode on width-W constants; returns false if
/// the operation is undefined (division by zero).
bool foldBinConst(Opcode Opc, uint64_t A, uint64_t B, unsigned W,
                  uint64_t &Out) {
  uint64_t MA = maskToWidth(A, W), MB = maskToWidth(B, W);
  int64_t SA = signExtend(MA, W), SB = signExtend(MB, W);
  switch (Opc) {
  case Opcode::Add:
    Out = MA + MB;
    return true;
  case Opcode::Sub:
    Out = MA - MB;
    return true;
  case Opcode::Mul:
    Out = MA * MB;
    return true;
  case Opcode::UDiv:
    if (MB == 0)
      return false;
    Out = MA / MB;
    return true;
  case Opcode::URem:
    if (MB == 0)
      return false;
    Out = MA % MB;
    return true;
  case Opcode::SDiv:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return false;
    Out = static_cast<uint64_t>(SA / SB);
    return true;
  case Opcode::SRem:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return false;
    Out = static_cast<uint64_t>(SA % SB);
    return true;
  case Opcode::And:
    Out = MA & MB;
    return true;
  case Opcode::Or:
    Out = MA | MB;
    return true;
  case Opcode::Xor:
    Out = MA ^ MB;
    return true;
  case Opcode::Shl:
    Out = (MB % W) >= 64 ? 0 : MA << (MB % W);
    return true;
  case Opcode::LShr:
    Out = MA >> (MB % W);
    return true;
  case Opcode::AShr:
    Out = static_cast<uint64_t>(SA >> (MB % W));
    return true;
  case Opcode::Eq:
    Out = MA == MB;
    return true;
  case Opcode::Ne:
    Out = MA != MB;
    return true;
  case Opcode::ULt:
    Out = MA < MB;
    return true;
  case Opcode::ULe:
    Out = MA <= MB;
    return true;
  case Opcode::SLt:
    Out = SA < SB;
    return true;
  case Opcode::SLe:
    Out = SA <= SB;
    return true;
  default:
    return false;
  }
}

bool isConstZero(const Expr *E) { return E->isConst() && E->constVal() == 0; }
bool isConstOnes(const Expr *E) {
  return E->isConst() && E->constVal() == maskToWidth(~uint64_t(0), E->width());
}
bool isConstOne(const Expr *E) { return E->isConst() && E->constVal() == 1; }

} // namespace

const Expr *ExprContext::foldOp(Opcode Opc,
                                const std::vector<const Expr *> &Ops,
                                unsigned Width) {
  // Full constant folding.
  if (Ops.size() == 2 && Ops[0]->isConst() && Ops[1]->isConst()) {
    uint64_t Out;
    unsigned OperandW = Ops[0]->width();
    if (foldBinConst(Opc, Ops[0]->constVal(), Ops[1]->constVal(), OperandW,
                     Out))
      return mkConst(Out, Width);
  }
  if (Ops.size() == 1 && Ops[0]->isConst()) {
    uint64_t V = Ops[0]->constVal();
    unsigned SrcW = Ops[0]->width();
    switch (Opc) {
    case Opcode::Not:
      return mkConst(~V, Width);
    case Opcode::Neg:
      return mkConst(0 - V, Width);
    case Opcode::ZExt:
      return mkConst(maskToWidth(V, SrcW), Width);
    case Opcode::SExt:
      return mkConst(static_cast<uint64_t>(signExtend(V, SrcW)), Width);
    case Opcode::Trunc:
      return mkConst(V, Width);
    default:
      break;
    }
  }

  const Expr *A = Ops.size() >= 1 ? Ops[0] : nullptr;
  const Expr *B = Ops.size() >= 2 ? Ops[1] : nullptr;

  switch (Opc) {
  case Opcode::Add:
    if (isConstZero(A))
      return B;
    if (isConstZero(B))
      return A;
    // (x + c1) + c2 -> x + (c1+c2)
    if (B->isConst() && A->isOp() && A->opcode() == Opcode::Add &&
        A->operand(1)->isConst())
      return mkOp(Opcode::Add,
                  {A->operand(0), mkConst(A->operand(1)->constVal() +
                                              B->constVal(),
                                          Width)},
                  Width);
    // c + x -> x + c (canonical: constant on the right)
    if (A->isConst() && !B->isConst())
      return mkOp(Opcode::Add, {B, A}, Width);
    break;
  case Opcode::Sub:
    if (isConstZero(B))
      return A;
    if (A == B)
      return mkConst(0, Width);
    // x - c -> x + (-c): canonical additive form.
    if (B->isConst())
      return mkOp(Opcode::Add, {A, mkConst(0 - B->constVal(), Width)}, Width);
    // (x + c) - y stays; x - (y + c) -> (x - y) + (-c)
    if (B->isOp() && B->opcode() == Opcode::Add && B->operand(1)->isConst())
      return mkOp(Opcode::Add,
                  {mkOp(Opcode::Sub, {A, B->operand(0)}, Width),
                   mkConst(0 - B->operand(1)->constVal(), Width)},
                  Width);
    // (x + c) - y -> (x - y) + c
    if (A->isOp() && A->opcode() == Opcode::Add && A->operand(1)->isConst())
      return mkOp(Opcode::Add,
                  {mkOp(Opcode::Sub, {A->operand(0), B}, Width),
                   A->operand(1)},
                  Width);
    break;
  case Opcode::Mul:
    if (isConstZero(A) || isConstZero(B))
      return mkConst(0, Width);
    if (isConstOne(A))
      return B;
    if (isConstOne(B))
      return A;
    if (A->isConst() && !B->isConst())
      return mkOp(Opcode::Mul, {B, A}, Width);
    break;
  case Opcode::And:
    if (isConstZero(A) || isConstZero(B))
      return mkConst(0, Width);
    if (isConstOnes(A))
      return B;
    if (isConstOnes(B))
      return A;
    if (A == B)
      return A;
    break;
  case Opcode::Or:
    if (isConstZero(A))
      return B;
    if (isConstZero(B))
      return A;
    if (A == B)
      return A;
    if (isConstOnes(A) || isConstOnes(B))
      return mkConst(~uint64_t(0), Width);
    break;
  case Opcode::Xor:
    if (isConstZero(A))
      return B;
    if (isConstZero(B))
      return A;
    if (A == B)
      return mkConst(0, Width);
    break;
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
    if (isConstZero(B))
      return A;
    // x << c -> x * 2^c: canonical multiplicative form for address math.
    if (Opc == Opcode::Shl && B->isConst() && B->constVal() < Width)
      return mkOp(Opcode::Mul,
                  {A, mkConst(uint64_t(1) << B->constVal(), Width)}, Width);
    break;
  case Opcode::ZExt:
  case Opcode::SExt:
    if (A->width() == Width)
      return A;
    // zext(zext(x)) -> zext(x); zext of a const handled above.
    if (A->isOp() && A->opcode() == Opc)
      return mkOp(Opc, {A->operand(0)}, Width);
    break;
  case Opcode::Trunc:
    if (A->width() == Width)
      return A;
    // trunc(zext/sext(x)) where x has the target width -> x.
    if (A->isOp() &&
        (A->opcode() == Opcode::ZExt || A->opcode() == Opcode::SExt) &&
        A->operand(0)->width() == Width)
      return A->operand(0);
    break;
  case Opcode::Eq:
    if (A == B && !A->hasFreshLeaf())
      return mkTrue();
    break;
  case Opcode::ULe:
  case Opcode::SLe:
    if (A == B && !A->hasFreshLeaf())
      return mkTrue();
    break;
  case Opcode::Ite:
    if (Ops[0]->isConst())
      return Ops[0]->constVal() ? Ops[1] : Ops[2];
    if (Ops[1] == Ops[2])
      return Ops[1];
    break;
  default:
    break;
  }
  return nullptr;
}

const Expr *ExprContext::mkOp(Opcode Opc, std::vector<const Expr *> Ops,
                              unsigned Width) {
  assert(!Ops.empty());
  if (const Expr *Simplified = foldOp(Opc, Ops, Width))
    return Simplified;

  Expr E;
  E.Kind = ExprKind::Op;
  E.Width = static_cast<uint8_t>(Width);
  E.Opc = Opc;
  uint32_t Size = 1;
  bool Fresh = false;
  for (const Expr *Op : Ops) {
    Size += Op->treeSize();
    Fresh |= Op->hasFreshLeaf();
  }
  E.Size = Size;
  E.HasFresh = Fresh;
  E.Ops = std::move(Ops);
  return intern(std::move(E));
}

const Expr *ExprContext::internOp(Opcode Opc, std::vector<const Expr *> Ops,
                                  unsigned Width) {
  assert(!Ops.empty());
  Expr E;
  E.Kind = ExprKind::Op;
  E.Width = static_cast<uint8_t>(Width);
  E.Opc = Opc;
  uint32_t Size = 1;
  bool Fresh = false;
  for (const Expr *Op : Ops) {
    Size += Op->treeSize();
    Fresh |= Op->hasFreshLeaf();
  }
  E.Size = Size;
  E.HasFresh = Fresh;
  E.Ops = std::move(Ops);
  return intern(std::move(E));
}

std::string Expr::str(const ExprContext &Ctx) const {
  switch (Kind) {
  case ExprKind::Const: {
    if (Width == 1)
      return ConstVal ? "true" : "false";
    int64_t S = signExtend(ConstVal, Width);
    if (S < 0 && S > -4096)
      return "-" + hexStr(static_cast<uint64_t>(-S));
    return hexStr(ConstVal);
  }
  case ExprKind::Var:
    return Ctx.varInfo(VarId).Name;
  case ExprKind::Deref:
    return "*[" + Ops[0]->str(Ctx) + "," + std::to_string(DerefSize) + "]";
  case ExprKind::Op: {
    // Infix for the common address forms, prefix otherwise.
    if (Opc == Opcode::Add && Ops.size() == 2 && Ops[1]->isConst()) {
      int64_t K = signExtend(Ops[1]->constVal(), Width);
      return "(" + Ops[0]->str(Ctx) + " " + dispStr(K).substr(0, 1) + " " +
             hexStr(static_cast<uint64_t>(K < 0 ? -K : K)) + ")";
    }
    std::string S = "(";
    S += opcodeName(Opc);
    for (const Expr *Op : Ops) {
      S += " ";
      S += Op->str(Ctx);
    }
    S += ")";
    return S;
  }
  }
  return "?";
}

LinearForm linearize(const Expr *E) {
  // Coefficients and the constant wrap modulo 2^64 like the expressions
  // they come from, so the arithmetic runs in uint64_t (signed overflow
  // would be undefined) and is read back as two's-complement int64_t.
  uint64_t Constant = 0;
  std::vector<std::pair<uint64_t, const Expr *>> Terms;
  // Worklist of (coefficient, expr) pairs.
  std::vector<std::pair<uint64_t, const Expr *>> Work{{1, E}};
  auto sext = [](const Expr *K, unsigned W) {
    return static_cast<uint64_t>(signExtend(K->constVal(), W));
  };
  while (!Work.empty()) {
    auto [C, X] = Work.back();
    Work.pop_back();
    if (X->isConst()) {
      Constant += C * sext(X, X->width());
      continue;
    }
    if (X->isOp()) {
      switch (X->opcode()) {
      case Opcode::Add:
        Work.push_back({C, X->operand(0)});
        Work.push_back({C, X->operand(1)});
        continue;
      case Opcode::Sub:
        Work.push_back({C, X->operand(0)});
        Work.push_back({0 - C, X->operand(1)});
        continue;
      case Opcode::Neg:
        Work.push_back({0 - C, X->operand(0)});
        continue;
      case Opcode::Mul:
        if (X->operand(1)->isConst()) {
          Work.push_back({C * sext(X->operand(1), X->width()), X->operand(0)});
          continue;
        }
        break;
      default:
        break;
      }
    }
    Terms.push_back({C, X});
  }
  // Canonical order + coefficient merging.
  std::sort(Terms.begin(), Terms.end(),
            [](const auto &A, const auto &B) { return A.second < B.second; });
  std::vector<std::pair<uint64_t, const Expr *>> Merged;
  for (auto &[C, X] : Terms) {
    if (!Merged.empty() && Merged.back().second == X)
      Merged.back().first += C;
    else
      Merged.push_back({C, X});
  }
  LinearForm LF;
  LF.Constant = static_cast<int64_t>(Constant);
  for (auto &[C, X] : Merged)
    if (C != 0)
      LF.Terms.push_back({static_cast<int64_t>(C), X});
  return LF;
}

} // namespace hglift::expr
