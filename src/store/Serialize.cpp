#include "store/Serialize.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

namespace hglift::store {

using expr::Expr;
using expr::ExprContext;
using expr::ExprKind;
using expr::VarInfo;

namespace {

constexpr uint32_t Magic = 0x4E464748; // "HGFN" little-endian

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

uint64_t fnv1a(uint64_t H, const uint8_t *P, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t fnv1aU64(uint64_t H, uint64_t V) {
  uint8_t B[8];
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * I));
  return fnv1a(H, B, 8);
}

// --- primitive writer/reader (fixed-width little-endian) -------------------

struct Writer {
  std::vector<uint8_t> Buf;

  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  void append(const Writer &O) {
    Buf.insert(Buf.end(), O.Buf.begin(), O.Buf.end());
  }
};

struct Reader {
  const std::vector<uint8_t> &Buf;
  size_t Pos = 0;
  bool Fail = false;

  explicit Reader(const std::vector<uint8_t> &B) : Buf(B) {}

  size_t remaining() const { return Fail ? 0 : Buf.size() - Pos; }

  uint8_t u8() {
    if (remaining() < 1) {
      Fail = true;
      return 0;
    }
    return Buf[Pos++];
  }
  uint32_t u32() {
    if (remaining() < 4) {
      Fail = true;
      return 0;
    }
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Buf[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (remaining() < 8) {
      Fail = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Buf[Pos++]) << (8 * I);
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (remaining() < N) {
      Fail = true;
      return std::string();
    }
    std::string S(reinterpret_cast<const char *>(Buf.data() + Pos), N);
    Pos += N;
    return S;
  }
  /// A count of elements each at least MinBytes wide; rejects counts that
  /// cannot fit in the remaining bytes (corrupt input must not OOM us).
  uint32_t count(size_t MinBytes = 1) {
    uint32_t N = u32();
    if (static_cast<uint64_t>(N) * MinBytes > remaining()) {
      Fail = true;
      return 0;
    }
    return N;
  }
};

/// The LiftStats counter block: integer fields only. The wall-clock
/// (double) fields stay out of content-addressed objects.
void putCounter(Writer &W, uint64_t V) { W.u64(V); }
void putCounter(Writer &, double) {}
void getCounter(Reader &R, uint64_t &V) { V = R.u64(); }
void getCounter(Reader &, double &) {}

// --- expression table ------------------------------------------------------

/// Assigns 1-based indices to expressions on first use (0 = null). The
/// table is emitted in assignment order, so every Op/Deref operand has a
/// smaller index than its user.
struct ExprTable {
  std::vector<const Expr *> Order;
  std::unordered_map<const Expr *, uint32_t> Index;

  uint32_t ref(const Expr *E) {
    if (!E)
      return 0;
    auto It = Index.find(E);
    if (It != Index.end())
      return It->second;
    for (const Expr *Op : E->operands())
      ref(Op);
    Order.push_back(E);
    uint32_t Id = static_cast<uint32_t>(Order.size());
    Index.emplace(E, Id);
    return Id;
  }
};

void writeExprTable(Writer &W, const ExprTable &T, const ExprContext &Ctx) {
  W.u32(static_cast<uint32_t>(T.Order.size()));
  for (const Expr *E : T.Order) {
    W.u8(static_cast<uint8_t>(E->kind()));
    W.u8(E->width());
    switch (E->kind()) {
    case ExprKind::Const:
      W.u64(E->constVal());
      break;
    case ExprKind::Var: {
      const VarInfo &VI = Ctx.varInfo(E->varId());
      W.u8(static_cast<uint8_t>(VI.Cls));
      W.str(VI.Name);
      W.u64(VI.Aux);
      break;
    }
    case ExprKind::Op: {
      W.u8(static_cast<uint8_t>(E->opcode()));
      W.u32(static_cast<uint32_t>(E->operands().size()));
      for (const Expr *Op : E->operands())
        W.u32(T.Index.at(Op));
      break;
    }
    case ExprKind::Deref:
      W.u32(E->derefSize());
      W.u32(T.Index.at(E->derefAddr()));
      break;
    }
  }
}

/// Rebuilds the table into Ctx. Entry 0 is null; forward references fail.
std::vector<const Expr *> readExprTable(Reader &R, ExprContext &Ctx) {
  std::vector<const Expr *> Table;
  uint32_t N = R.count(2);
  Table.reserve(N + 1);
  Table.push_back(nullptr);
  auto at = [&](uint32_t Id) -> const Expr * {
    if (Id >= Table.size() || (Id == 0)) {
      R.Fail = true;
      return nullptr;
    }
    return Table[Id];
  };
  for (uint32_t I = 0; I < N && !R.Fail; ++I) {
    uint8_t Kind = R.u8();
    uint8_t Width = R.u8();
    if (Width < 1 || Width > 64) {
      R.Fail = true;
      break;
    }
    switch (static_cast<ExprKind>(Kind)) {
    case ExprKind::Const:
      Table.push_back(Ctx.mkConst(R.u64(), Width));
      break;
    case ExprKind::Var: {
      uint8_t Cls = R.u8();
      std::string Name = R.str();
      uint64_t Aux = R.u64();
      if (Cls > static_cast<uint8_t>(expr::VarClass::External) ||
          Name.empty()) {
        R.Fail = true;
        break;
      }
      Table.push_back(
          Ctx.mkVar(static_cast<expr::VarClass>(Cls), Name, Width, Aux));
      break;
    }
    case ExprKind::Op: {
      uint8_t Opc = R.u8();
      uint32_t NOps = R.count(4);
      if (Opc > static_cast<uint8_t>(expr::Opcode::Ite) || NOps == 0) {
        R.Fail = true;
        break;
      }
      std::vector<const Expr *> Ops;
      Ops.reserve(NOps);
      for (uint32_t J = 0; J < NOps && !R.Fail; ++J)
        Ops.push_back(at(R.u32()));
      if (!R.Fail)
        Table.push_back(
            Ctx.internOp(static_cast<expr::Opcode>(Opc), std::move(Ops),
                         Width));
      break;
    }
    case ExprKind::Deref: {
      uint32_t Size = R.u32();
      const Expr *Addr = at(R.u32());
      if (!R.Fail)
        Table.push_back(Ctx.mkDeref(Addr, Size));
      break;
    }
    default:
      R.Fail = true;
      break;
    }
  }
  return Table;
}

// --- predicates ------------------------------------------------------------

void writePred(Writer &W, ExprTable &T, const pred::Pred &P) {
  W.u8(P.isBottom() ? 1 : 0);
  for (unsigned I = 0; I < x86::NumGPRs; ++I)
    W.u32(T.ref(P.reg64(x86::regFromNum(I))));
  const pred::FlagState &F = P.flags();
  W.u8(static_cast<uint8_t>(F.K));
  W.u32(T.ref(F.L));
  W.u32(T.ref(F.R));
  W.u8(F.Width);
  W.u32(static_cast<uint32_t>(P.cells().size()));
  for (const pred::MemCell &C : P.cells()) {
    W.u32(T.ref(C.Addr));
    W.u32(C.Size);
    W.u32(T.ref(C.Val));
  }
  W.u32(static_cast<uint32_t>(P.ranges().size()));
  for (const pred::RangeClause &C : P.ranges()) {
    W.u32(T.ref(C.E));
    W.u8(static_cast<uint8_t>(C.Op));
    W.u64(C.Bound);
  }
}

bool readPred(Reader &R, const std::vector<const Expr *> &Table,
              pred::Pred &P) {
  auto at = [&](uint32_t Id, bool AllowNull = false) -> const Expr * {
    if (Id == 0) {
      if (!AllowNull)
        R.Fail = true;
      return nullptr;
    }
    if (Id >= Table.size()) {
      R.Fail = true;
      return nullptr;
    }
    return Table[Id];
  };
  uint8_t Bottom = R.u8();
  for (unsigned I = 0; I < x86::NumGPRs; ++I)
    P.setReg64(x86::regFromNum(I), at(R.u32(), /*AllowNull=*/true));
  uint8_t FK = R.u8();
  const Expr *FL = at(R.u32(), /*AllowNull=*/true);
  const Expr *FR = at(R.u32(), /*AllowNull=*/true);
  uint8_t FW = R.u8();
  using FlagKind = pred::FlagState::Kind;
  switch (static_cast<FlagKind>(FK)) {
  case FlagKind::Unknown:
    break;
  case FlagKind::Cmp:
    if (!FL || !FR)
      return false;
    P.setFlagsCmp(FL, FR, FW);
    break;
  case FlagKind::Test:
    if (!FL || !FR)
      return false;
    P.setFlagsTest(FL, FR, FW);
    break;
  case FlagKind::Res:
    if (!FL || FR)
      return false;
    P.setFlagsRes(FL, FW);
    break;
  case FlagKind::ZeroOf:
    if (!FL || FR)
      return false;
    P.setFlagsZeroOf(FL, FW);
    break;
  default:
    return false;
  }
  uint32_t NCells = R.count(12);
  for (uint32_t I = 0; I < NCells && !R.Fail; ++I) {
    const Expr *Addr = at(R.u32());
    uint32_t Size = R.u32();
    const Expr *Val = at(R.u32());
    if (!R.Fail)
      P.setCell(Addr, Size, Val);
  }
  uint32_t NRanges = R.count(13);
  for (uint32_t I = 0; I < NRanges && !R.Fail; ++I) {
    const Expr *E = at(R.u32());
    uint8_t Op = R.u8();
    uint64_t Bound = R.u64();
    if (Op > static_cast<uint8_t>(pred::RelOp::SGt)) {
      R.Fail = true;
      break;
    }
    if (!R.Fail)
      P.addRange(E, static_cast<pred::RelOp>(Op), Bound);
  }
  if (Bottom)
    P.setBottom();
  return !R.Fail;
}

// --- memory models ---------------------------------------------------------

constexpr unsigned MaxForestDepth = 1024;

void writeRegion(Writer &W, ExprTable &T, const smt::Region &R) {
  W.u32(T.ref(R.Addr));
  W.u32(R.Size);
}

void writeTree(Writer &W, ExprTable &T, const mem::MemTree &Tree) {
  W.u32(static_cast<uint32_t>(Tree.Node.size()));
  for (const smt::Region &R : Tree.Node)
    writeRegion(W, T, R);
  W.u32(static_cast<uint32_t>(Tree.Children.size()));
  for (const mem::MemTree &C : Tree.Children)
    writeTree(W, T, C);
}

void writeMemModel(Writer &W, ExprTable &T, const mem::MemModel &M) {
  W.u32(static_cast<uint32_t>(M.Forest.size()));
  for (const mem::MemTree &Tree : M.Forest)
    writeTree(W, T, Tree);
  W.u32(static_cast<uint32_t>(M.Clobbered.size()));
  for (const smt::Region &R : M.Clobbered)
    writeRegion(W, T, R);
  W.u8(M.HavocAll ? 1 : 0);
  W.u8(M.HavocGlobals ? 1 : 0);
}

bool readRegion(Reader &R, const std::vector<const Expr *> &Table,
                smt::Region &Out) {
  uint32_t Id = R.u32();
  Out.Size = R.u32();
  if (Id == 0 || Id >= Table.size()) {
    R.Fail = true;
    return false;
  }
  Out.Addr = Table[Id];
  return !R.Fail;
}

bool readTree(Reader &R, const std::vector<const Expr *> &Table,
              mem::MemTree &Out, unsigned Depth) {
  if (Depth > MaxForestDepth) {
    R.Fail = true;
    return false;
  }
  uint32_t NRegions = R.count(8);
  Out.Node.resize(NRegions);
  for (uint32_t I = 0; I < NRegions && !R.Fail; ++I)
    readRegion(R, Table, Out.Node[I]);
  uint32_t NChildren = R.count(8);
  Out.Children.resize(NChildren);
  for (uint32_t I = 0; I < NChildren && !R.Fail; ++I)
    readTree(R, Table, Out.Children[I], Depth + 1);
  return !R.Fail;
}

bool readMemModel(Reader &R, const std::vector<const Expr *> &Table,
                  mem::MemModel &M) {
  uint32_t NTrees = R.count(8);
  std::vector<mem::MemTree> &Forest = M.Forest.mut();
  Forest.resize(NTrees);
  for (uint32_t I = 0; I < NTrees && !R.Fail; ++I)
    readTree(R, Table, Forest[I], 0);
  uint32_t NClob = R.count(8);
  std::vector<smt::Region> &Clobbered = M.Clobbered.mut();
  Clobbered.resize(NClob);
  for (uint32_t I = 0; I < NClob && !R.Fail; ++I)
    readRegion(R, Table, Clobbered[I]);
  M.HavocAll = R.u8() != 0;
  M.HavocGlobals = R.u8() != 0;
  return !R.Fail;
}

// --- instructions ----------------------------------------------------------

void writeInstr(Writer &W, const x86::Instr &I) {
  W.u64(I.Addr);
  W.u8(I.Length);
  W.u8(static_cast<uint8_t>(I.Mn));
  W.u8(static_cast<uint8_t>(I.CC));
  W.u8(I.OpSize);
  for (const x86::Operand &O : I.Ops) {
    W.u8(static_cast<uint8_t>(O.K));
    W.u8(static_cast<uint8_t>(O.R));
    W.u8(O.HighByte ? 1 : 0);
    W.u8(static_cast<uint8_t>(O.M.Base));
    W.u8(static_cast<uint8_t>(O.M.Index));
    W.u8(O.M.Scale);
    W.u32(static_cast<uint32_t>(O.M.Disp));
    W.u8(O.M.RipRel ? 1 : 0);
    W.u64(static_cast<uint64_t>(O.Imm));
    W.u8(O.Size);
  }
}

bool readInstr(Reader &R, x86::Instr &I) {
  I.Addr = R.u64();
  I.Length = R.u8();
  uint8_t Mn = R.u8();
  if (Mn > static_cast<uint8_t>(x86::Mnemonic::Hlt))
    R.Fail = true;
  I.Mn = static_cast<x86::Mnemonic>(Mn);
  I.CC = static_cast<x86::Cond>(R.u8() & 0xf);
  I.OpSize = R.u8();
  for (x86::Operand &O : I.Ops) {
    uint8_t K = R.u8();
    if (K > static_cast<uint8_t>(x86::Operand::Kind::Imm))
      R.Fail = true;
    O.K = static_cast<x86::Operand::Kind>(K);
    O.R = static_cast<x86::Reg>(R.u8());
    O.HighByte = R.u8() != 0;
    O.M.Base = static_cast<x86::Reg>(R.u8());
    O.M.Index = static_cast<x86::Reg>(R.u8());
    O.M.Scale = R.u8();
    O.M.Disp = static_cast<int32_t>(R.u32());
    O.M.RipRel = R.u8() != 0;
    O.Imm = static_cast<int64_t>(R.u64());
    O.Size = R.u8();
  }
  return !R.Fail;
}

// --- diagnostics -----------------------------------------------------------

void writeDiag(Writer &W, const diag::Diagnostic &D) {
  W.u8(static_cast<uint8_t>(D.Kind));
  W.str(D.Message);
  W.u8(static_cast<uint8_t>(D.Prov.Origin));
  W.u64(D.Prov.FunctionEntry);
  W.u64(D.Prov.Addr);
  W.str(D.Prov.Mnemonic);
  W.u64(static_cast<uint64_t>(static_cast<int64_t>(D.Prov.ClauseId)));
  W.str(D.Prov.ClauseText);
  W.u32(static_cast<uint32_t>(D.Prov.QueryChain.size()));
  for (const std::string &Q : D.Prov.QueryChain)
    W.str(Q);
  // Worker is schedule-dependent and excluded from --report-json; store a
  // fixed 0 so serialization is deterministic across thread counts.
  W.u32(0);
}

bool readDiag(Reader &R, diag::Diagnostic &D) {
  uint8_t Kind = R.u8();
  if (Kind > static_cast<uint8_t>(diag::DiagKind::UnsoundnessAnnotation))
    R.Fail = true;
  D.Kind = static_cast<diag::DiagKind>(Kind);
  D.Message = R.str();
  uint8_t Origin = R.u8();
  if (Origin > static_cast<uint8_t>(diag::Component::HoareChecker))
    R.Fail = true;
  D.Prov.Origin = static_cast<diag::Component>(Origin);
  D.Prov.FunctionEntry = R.u64();
  D.Prov.Addr = R.u64();
  D.Prov.Mnemonic = R.str();
  D.Prov.ClauseId = static_cast<int>(static_cast<int64_t>(R.u64()));
  D.Prov.ClauseText = R.str();
  uint32_t NQ = R.count(4);
  D.Prov.QueryChain.resize(NQ);
  for (uint32_t I = 0; I < NQ && !R.Fail; ++I)
    D.Prov.QueryChain[I] = R.str();
  D.Prov.Worker = 0;
  R.u32(); // stored worker field, always 0
  return !R.Fail;
}

// --- graph -----------------------------------------------------------------

void writeKey(Writer &W, const hg::VertexKey &K) {
  W.u64(K.Rip);
  W.u64(K.CtrlHash);
}

hg::VertexKey readKey(Reader &R) {
  hg::VertexKey K;
  K.Rip = R.u64();
  K.CtrlHash = R.u64();
  return K;
}

void writeGraph(Writer &W, ExprTable &T, const hg::HoareGraph &G) {
  writeKey(W, G.Initial);
  W.u32(static_cast<uint32_t>(G.Vertices.size()));
  for (const auto &[Key, V] : G.Vertices) {
    writeKey(W, Key);
    writePred(W, T, V.State.P);
    writeMemModel(W, T, V.State.M);
    writeInstr(W, V.Instr);
    W.u8(V.Explored ? 1 : 0);
    W.u32(V.JoinCount);
  }
  W.u32(static_cast<uint32_t>(G.edges().size()));
  for (const hg::Edge &E : G.edges()) {
    writeKey(W, E.From);
    writeKey(W, E.To);
    writeInstr(W, E.Instr);
    W.u8(static_cast<uint8_t>(E.Kind));
    W.u64(E.CalleeAddr);
    W.u64(E.ViaTable);
  }
}

bool readGraph(Reader &R, const std::vector<const Expr *> &Table,
               hg::HoareGraph &G) {
  G.Initial = readKey(R);
  uint32_t NVerts = R.count(16);
  for (uint32_t I = 0; I < NVerts && !R.Fail; ++I) {
    hg::Vertex V;
    V.Key = readKey(R);
    if (!readPred(R, Table, V.State.P) ||
        !readMemModel(R, Table, V.State.M) || !readInstr(R, V.Instr))
      return false;
    V.Explored = R.u8() != 0;
    V.JoinCount = R.u32();
    if (!G.Vertices.emplace(V.Key, std::move(V)).second) {
      R.Fail = true; // duplicate vertex key: corrupt entry
      return false;
    }
  }
  uint32_t NEdges = R.count(16);
  for (uint32_t I = 0; I < NEdges && !R.Fail; ++I) {
    hg::Edge E;
    E.From = readKey(R);
    E.To = readKey(R);
    if (!readInstr(R, E.Instr))
      return false;
    uint8_t Kind = R.u8();
    if (Kind > static_cast<uint8_t>(sem::CtrlKind::UnresCall)) {
      R.Fail = true;
      return false;
    }
    E.Kind = static_cast<sem::CtrlKind>(Kind);
    E.CalleeAddr = R.u64();
    E.ViaTable = R.u64();
    if (!G.addEdge(E)) {
      R.Fail = true; // duplicate edge: corrupt entry
      return false;
    }
  }
  return !R.Fail;
}

} // namespace

// --- digests ---------------------------------------------------------------

uint64_t configDigest(const hg::LiftConfig &Cfg) {
  // Every field here is visible in lifted results; Threads and MaxSeconds
  // are deliberately excluded so flipping them still hits.
  uint64_t H = FnvOffset;
  H = fnv1aU64(H, static_cast<uint64_t>(Cfg.Sym.Policy));
  H = fnv1aU64(H, Cfg.Sym.MaxJumpTableEntries);
  H = fnv1aU64(H, hg::WidenAfterJoins);
  H = fnv1aU64(H, Cfg.MaxVertices);
  H = fnv1aU64(H, Cfg.EnableJoin);
  H = fnv1aU64(H, Cfg.CtrlImmediateException);
  H = fnv1aU64(H, Cfg.Solver.AllocClassAssumptions);
  H = fnv1aU64(H, Cfg.Sym.Vsa ? 2 : 1);
  H = fnv1aU64(H, Cfg.Sym.VsaMaxTargets);
  // Whether Z3 answers queries changes what is provable, and whether it
  // *can* answer is a compile-time property of this binary — a shared
  // cache dir must not leak graphs across differently-built lifters.
#ifdef HGLIFT_WITH_Z3
  H = fnv1aU64(H, Cfg.Solver.UseZ3 ? 2 : 1);
#else
  H = fnv1aU64(H, 0);
#endif
  return H;
}

std::vector<Span> instructionSpans(const hg::FunctionResult &F) {
  std::set<Span> S;
  for (const auto &[Key, V] : F.Graph.Vertices)
    if (V.Explored && V.Instr.isValid())
      S.insert({Key.Rip, V.Instr.Length});
  return std::vector<Span>(S.begin(), S.end());
}

std::optional<uint64_t> byteDigest(const elf::BinaryImage &Img,
                                   const std::vector<Span> &Spans) {
  uint64_t H = FnvOffset;
  for (const Span &S : Spans) {
    size_t Avail = 0;
    const uint8_t *P = Img.bytesAt(S.first, Avail);
    if (!P || Avail < S.second || !Img.isExec(S.first))
      return std::nullopt;
    H = fnv1aU64(H, S.first);
    H = fnv1a(H, P, S.second);
  }
  // External-call targets: a PLT stub changing its name (or address)
  // changes call semantics without changing the caller's instruction
  // bytes, so the whole stub map participates.
  for (const auto &[Addr, Name] : Img.PltStubs) {
    H = fnv1aU64(H, Addr);
    H = fnv1a(H, reinterpret_cast<const uint8_t *>(Name.data()), Name.size());
  }
  return H;
}

// --- entry points ----------------------------------------------------------

std::vector<uint8_t> serializeFunction(const hg::FunctionResult &F,
                                       const elf::BinaryImage &Img,
                                       const hg::LiftConfig &Cfg) {
  ExprTable T;
  Writer Body;

  // Scalars that use no expression references.
  Body.u64(F.ctx().freshCounter());
  Body.u8(F.MayReturn ? 1 : 0);
  Body.u32(F.ResolvedIndirections);
  Body.u32(F.UnresolvedJumps);
  Body.u32(F.UnresolvedCalls);
#define HGLIFT_STATS_PUT(Type, Member, Name) putCounter(Body, F.Stats.Member);
  HGLIFT_LIFT_STATS(HGLIFT_STATS_PUT)
#undef HGLIFT_STATS_PUT

  // Structures; expression-table indices are assigned on first use, in
  // exactly this serialization order, so the format is deterministic.
  Writer Refs;
  Refs.u32(T.ref(F.RetSym));
  writeGraph(Refs, T, F.Graph);
  Refs.u32(static_cast<uint32_t>(F.Obligations.size()));
  for (const std::string &O : F.Obligations)
    Refs.str(O);
  Refs.u32(static_cast<uint32_t>(F.Diags.size()));
  for (const diag::Diagnostic &D : F.Diags)
    writeDiag(Refs, D);
  Refs.u32(static_cast<uint32_t>(F.Callees.size()));
  for (uint64_t C : F.Callees)
    Refs.u64(C);

  std::vector<Span> Spans = instructionSpans(F);
  std::optional<uint64_t> BD = byteDigest(Img, Spans);

  Writer Out;
  Out.u32(Magic);
  Out.u32(StoreSchemaVersion);
  Out.u32(SemanticsRevision);
  Out.u64(F.Entry);
  Out.u64(configDigest(Cfg));
  Out.u32(static_cast<uint32_t>(Spans.size()));
  for (const Span &Sp : Spans) {
    Out.u64(Sp.first);
    Out.u32(Sp.second);
  }
  Out.u64(BD.value_or(0));
  Out.append(Body);
  writeExprTable(Out, T, F.ctx());
  Out.append(Refs);
  Out.u64(fnv1a(FnvOffset, Out.Buf.data(), Out.Buf.size()));
  return Out.Buf;
}

bool readHeader(const std::vector<uint8_t> &Bytes, EntryHeader &Out) {
  if (Bytes.size() < 8)
    return false;
  // Whole-entry checksum first: everything after this can assume the
  // bytes are the ones that were written (bit flips and truncation are
  // always caught here).
  Reader Tail(Bytes);
  Tail.Pos = Bytes.size() - 8;
  uint64_t Stored = Tail.u64();
  if (fnv1a(FnvOffset, Bytes.data(), Bytes.size() - 8) != Stored)
    return false;

  Reader R(Bytes);
  if (R.u32() != Magic || R.u32() != StoreSchemaVersion ||
      R.u32() != SemanticsRevision)
    return false;
  Out.Entry = R.u64();
  Out.ConfigDigest = R.u64();
  uint32_t NSpans = R.count(12);
  Out.Spans.resize(NSpans);
  for (uint32_t I = 0; I < NSpans && !R.Fail; ++I) {
    Out.Spans[I].first = R.u64();
    Out.Spans[I].second = R.u32();
  }
  Out.ByteDigest = R.u64();
  return !R.Fail;
}

std::optional<hg::FunctionResult>
deserializeFunction(const std::vector<uint8_t> &Bytes,
                    const elf::BinaryImage &Img, const hg::LiftConfig &Cfg) {
  EntryHeader H;
  if (!readHeader(Bytes, H))
    return std::nullopt;

  Reader R(Bytes);
  // Skip the header (readHeader validated it): magic + versions, entry,
  // config digest, span list, byte digest.
  R.Pos = 4 + 4 + 4 + 8 + 8 + 4 + H.Spans.size() * 12 + 8;

  hg::FunctionResult F;
  F.Entry = H.Entry;
  F.Outcome = hg::LiftOutcome::Lifted;
  auto Arena = std::make_shared<hg::LiftArena>(Img, Cfg);
  expr::ExprContext &Ctx = Arena->ctx();

  uint64_t FreshCounter = R.u64();
  F.MayReturn = R.u8() != 0;
  F.ResolvedIndirections = R.u32();
  F.UnresolvedJumps = R.u32();
  F.UnresolvedCalls = R.u32();
#define HGLIFT_STATS_GET(Type, Member, Name) getCounter(R, F.Stats.Member);
  HGLIFT_LIFT_STATS(HGLIFT_STATS_GET)
#undef HGLIFT_STATS_GET

  std::vector<const Expr *> Table = readExprTable(R, Ctx);
  if (R.Fail)
    return std::nullopt;

  uint32_t RetSymId = R.u32();
  if (RetSymId == 0 || RetSymId >= Table.size())
    return std::nullopt;
  F.RetSym = Table[RetSymId];

  if (!readGraph(R, Table, F.Graph))
    return std::nullopt;

  uint32_t NObl = R.count(4);
  F.Obligations.resize(NObl);
  for (uint32_t I = 0; I < NObl && !R.Fail; ++I)
    F.Obligations[I] = R.str();

  uint32_t NDiags = R.count(4);
  F.Diags.resize(NDiags);
  for (uint32_t I = 0; I < NDiags && !R.Fail; ++I)
    if (!readDiag(R, F.Diags[I]))
      return std::nullopt;

  uint32_t NCallees = R.count(8);
  for (uint32_t I = 0; I < NCallees && !R.Fail; ++I)
    F.Callees.insert(R.u64());

  // The payload must end exactly at the checksum: trailing garbage means
  // the entry was not produced by this writer.
  if (R.Fail || R.Pos != Bytes.size() - 8)
    return std::nullopt;

  // Resume the producer's fresh-name sequence (a warm Step-2 then
  // allocates the same names a cold one would).
  if (FreshCounter < Ctx.freshCounter())
    return std::nullopt;
  Ctx.setFreshCounter(FreshCounter);

  F.Arena = std::move(Arena);
  return F;
}

} // namespace hglift::store
