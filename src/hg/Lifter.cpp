#include "hg/Lifter.h"

#include "diag/Trace.h"
#include "hg/StateMemo.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

namespace hglift::hg {

using expr::Expr;
using expr::VarClass;
using pred::Pred;
using sem::CtrlKind;
using sem::StepOut;
using sem::Succ;
using sem::SymState;
using x86::Instr;
using x86::Mnemonic;

const char *liftOutcomeName(LiftOutcome O) {
  switch (O) {
  case LiftOutcome::Lifted:
    return "lifted";
  case LiftOutcome::UnprovableReturn:
    return "unprovable-return";
  case LiftOutcome::Concurrency:
    return "concurrency";
  case LiftOutcome::Timeout:
    return "timeout";
  }
  return "?";
}

size_t BinaryResult::totalInstructions() const {
  std::set<uint64_t> All;
  for (const FunctionResult &F : Functions) {
    auto A = F.Graph.instructionAddrs();
    All.insert(A.begin(), A.end());
  }
  return All.size();
}

size_t BinaryResult::totalStates() const {
  size_t N = 0;
  for (const FunctionResult &F : Functions)
    N += F.Graph.numStates();
  return N;
}

unsigned BinaryResult::totalA() const {
  unsigned N = 0;
  for (const FunctionResult &F : Functions)
    N += F.ResolvedIndirections;
  return N;
}
unsigned BinaryResult::totalB() const {
  unsigned N = 0;
  for (const FunctionResult &F : Functions)
    N += F.UnresolvedJumps;
  return N;
}
unsigned BinaryResult::totalC() const {
  unsigned N = 0;
  for (const FunctionResult &F : Functions)
    N += F.UnresolvedCalls;
  return N;
}

std::vector<std::string> BinaryResult::allObligations() const {
  std::vector<std::string> Out;
  for (const FunctionResult &F : Functions)
    for (const std::string &O : F.Obligations)
      if (std::find(Out.begin(), Out.end(), O) == Out.end())
        Out.push_back(O);
  return Out;
}

std::vector<diag::Diagnostic> BinaryResult::allDiagnostics() const {
  std::vector<diag::Diagnostic> Out;
  for (const FunctionResult &F : Functions)
    Out.insert(Out.end(), F.Diags.begin(), F.Diags.end());
  return Out;
}

LiftArena::LiftArena(const elf::BinaryImage &Img, const LiftConfig &Cfg)
    : Ctx(std::make_unique<expr::ExprContext>()),
      Solver(std::make_unique<smt::RelationSolver>(*Ctx, Cfg.Solver)),
      Exec(std::make_unique<sem::SymExec>(*Ctx, *Solver, Img, Cfg.Sym)) {}

LiftArena::~LiftArena() = default;

Lifter::Lifter(const elf::BinaryImage &Img, LiftConfig Cfg)
    : Img(Img), Cfg(Cfg) {}

uint64_t Lifter::ctrlHash(const SymState &S) const {
  if (!Cfg.CtrlImmediateException)
    return 0;
  // §4: states holding *different* immediate pointers into the text
  // section (in registers or in memory clauses) are not joined — those
  // immediates will very likely decide future control flow. Jump-table
  // reads (Deref values) are fingerprinted the same way. Only structural
  // expression hashes are mixed in (never interned-pointer identities):
  // vertex keys must be reproducible across runs, contexts, and thread
  // schedules for the parallel engine's determinism guarantee.
  uint64_t H = 0;
  auto Mix = [&H](uint64_t A, uint64_t B) {
    uint64_t V = A * 0x9e3779b97f4a7c15ULL + B;
    V ^= V >> 29;
    H ^= V * 0xbf58476d1ce4e5b9ULL;
  };
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    const Expr *V = S.P.reg64(x86::regFromNum(I));
    if (V && V->isConst() && Img.isTextPointer(V->constVal()))
      Mix(I + 1, V->constVal());
  }
  for (const pred::MemCell &C : S.P.cells()) {
    if (C.Val->isConst() && Img.isTextPointer(C.Val->constVal())) {
      Mix(C.Addr->hashValue(), C.Val->constVal());
    } else if (C.Val->isDeref()) {
      // Only jump-table-shaped reads (constant read-only base) are
      // control-relevant; fingerprinting stack-slot reads would defeat
      // joining across ordinary diamonds.
      expr::LinearForm LF = expr::linearize(C.Val->derefAddr());
      if (LF.Constant != 0 &&
          Img.isReadOnly(static_cast<uint64_t>(LF.Constant)))
        Mix(C.Addr->hashValue(), C.Val->hashValue());
    }
  }
  return H;
}

FunctionCache::~FunctionCache() = default;

FunctionResult Lifter::liftFunction(uint64_t Entry) {
  // Single chokepoint for both the serial and the parallel engine: a
  // cache hit skips the Step-1 fixpoint entirely (the cache re-proved it
  // through Step 2); a miss lifts and populates the store. Only fully
  // lifted results are offered — failures are cheap to reproduce.
  if (Cfg.Cache)
    if (std::optional<FunctionResult> Hit = Cfg.Cache->lookup(Img, Cfg, Entry))
      return std::move(*Hit);
  FunctionResult FR = liftUncached(Entry);
  if (Cfg.Cache && FR.Outcome == LiftOutcome::Lifted)
    Cfg.Cache->store(Img, Cfg, FR);
  return FR;
}

FunctionResult Lifter::liftUncached(uint64_t Entry) {
  // The function clock covers the arena's construction too.
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  auto Arena = std::make_shared<LiftArena>(Img, Cfg);
  LiftArena &A = *Arena;
  expr::ExprContext &Ctx = A.ctx();
  sem::SymExec &Exec = A.exec();

  // Attribute this worker's trace events (including the solver's) to the
  // function being lifted, and open the lift span.
  diag::TraceContext::FunctionScope TraceFn(Entry);
  if (diag::Tracer *T = diag::Tracer::active()) {
    diag::TraceEvent E("lift_begin");
    E.hex("fn", Entry);
    T->emit(std::move(E));
  }

  FunctionResult FR;
  FR.Entry = Entry;
  FR.Arena = Arena;
  FR.RetSym = Ctx.mkVar(VarClass::RetSym, "S_" + hexStr(Entry), 64, Entry);

  Exec.setStats(&FR.Stats);
  A.solver().setLiftStats(&FR.Stats);

  auto mkInit = [&]() {
    SymState Init;
    Init.P = Pred::entry(Ctx, FR.RetSym);
    // Seed the memory model with the return-address region.
    const Expr *Rsp0 = Init.P.reg64(x86::Reg::RSP);
    Init.M.Forest.mut().push_back(mem::MemTree{{smt::Region{Rsp0, 8}}, {}});
    return Init;
  };
  SymState Init = mkInit();

  HoareGraph &G = FR.Graph;
  G.Initial = VertexKey{Entry, ctrlHash(Init)};

  // Abstraction-order memo for the covered/subsumption probes below.
  StateLeqMemo Memo;
  Memo.setLiftStats(&FR.Stats);

  // The worklist: states keyed by instruction address, always popping the
  // lowest address (FIFO among states at one address). For
  // compiler-laid-out code this approximates reverse post-order, so states
  // arriving at a join point are batched before the vertex is re-explored.
  std::map<uint64_t, std::deque<SymState>> Worklist;
  size_t Pending = 0;
  auto push = [&](SymState S, uint64_t Rip) {
    ++Pending;
    Worklist[Rip].push_back(std::move(S));
  };
  auto pop = [&]() -> std::pair<SymState, uint64_t> {
    --Pending;
    auto It = Worklist.begin();
    uint64_t Rip = It->first;
    SymState S = std::move(It->second.front());
    It->second.pop_front();
    if (It->second.empty())
      Worklist.erase(It);
    return {std::move(S), Rip};
  };

  push(std::move(Init), Entry);
  uint64_t Serial = 0;
  // Annotation/resolution sites (re-exploration of a vertex after joins
  // must not double-count).
  std::set<uint64_t> ResolvedSites, UnresJumpSites, UnresCallSites;
  // VSA retry (docs/VSA.md): indices of table-shaped indirections that
  // lost their bound — usually to a widening join — are protected across
  // subsequent joins and the function is re-explored from scratch in the
  // same arena (expressions intern identically across attempts, so the
  // protected pointers stay valid and recognizable). The attempt cap and
  // the join-count cutoff below keep termination.
  std::vector<const Expr *> Protected;
  constexpr unsigned MaxVsaRestarts = 2;
  unsigned Attempt = 0;
  bool NewProtected = false;
  auto restart = [&]() {
    ++Attempt;
    ++FR.Stats.VsaRestarts;
    NewProtected = false;
    G.Vertices.clear();
    G.clearEdges();
    FR.Diags.clear();
    FR.Obligations.clear();
    FR.Callees.clear();
    FR.MayReturn = false;
    ResolvedSites.clear();
    UnresJumpSites.clear();
    UnresCallSites.clear();
    Worklist.clear();
    Pending = 0;
    Serial = 0;
    push(mkInit(), Entry);
  };
  auto finish = [&]() {
    FR.ResolvedIndirections = static_cast<unsigned>(ResolvedSites.size());
    FR.UnresolvedJumps = static_cast<unsigned>(UnresJumpSites.size());
    FR.UnresolvedCalls = static_cast<unsigned>(UnresCallSites.size());
    // Overlapping-instruction edges are residual overapproximations too:
    // surface each as an annotation with the edge in its provenance.
    for (const Edge &W : G.weirdEdges()) {
      diag::Diagnostic D;
      D.Kind = diag::DiagKind::UnsoundnessAnnotation;
      D.Message = "edge " + hexStr(W.From.Rip) + " -> " + hexStr(W.To.Rip) +
                  " jumps into the middle of another decoded instruction "
                  "(weird edge)";
      D.Prov.Origin = diag::Component::Lifter;
      D.Prov.Addr = W.From.Rip;
      D.Prov.Mnemonic = W.Instr.str();
      D.Prov.Worker = diag::workerOrdinal();
      FR.Diags.push_back(std::move(D));
    }
    // Deterministic diagnostic order, independent of exploration history:
    // (address, kind, message), stable for equal keys.
    std::stable_sort(FR.Diags.begin(), FR.Diags.end(),
                     [](const diag::Diagnostic &X, const diag::Diagnostic &Y) {
                       if (X.Prov.Addr != Y.Prov.Addr)
                         return X.Prov.Addr < Y.Prov.Addr;
                       if (X.Kind != Y.Kind)
                         return X.Kind < Y.Kind;
                       return X.Message < Y.Message;
                     });
    for (diag::Diagnostic &D : FR.Diags)
      D.Prov.FunctionEntry = Entry;
    FR.Stats.Seconds = Elapsed();
    // FR is about to move out of this frame; the arena must not keep sinks
    // into it (consumers may re-run the arena's executor, e.g. HoareChecker).
    Exec.setStats(nullptr);
    A.solver().setLiftStats(nullptr);
    if (diag::Tracer *T = diag::Tracer::active()) {
      diag::TraceEvent E("lift_end");
      E.hex("fn", Entry);
      E.field("outcome", liftOutcomeName(FR.Outcome));
      E.field("vertices", FR.Stats.Vertices);
      E.field("joins", FR.Stats.Joins);
      E.field("widenings", FR.Stats.Widenings);
      E.field("steps", FR.Stats.Steps);
      E.field("forks", FR.Stats.Forks);
      E.field("solver_queries", FR.Stats.SolverQueries);
      E.field("z3_queries", FR.Stats.Z3Queries);
      E.field("rel_cache_hits", FR.Stats.RelCacheHits);
      E.field("rel_cache_misses", FR.Stats.RelCacheMisses);
      E.field("leq_hits", FR.Stats.LeqHits);
      E.field("leq_misses", FR.Stats.LeqMisses);
      E.field("diags", static_cast<uint64_t>(FR.Diags.size()));
      E.field("seconds", FR.Stats.Seconds);
      T->emit(std::move(E));
    }
  };
  // FailAddr: the instruction the failure is attached to (0 when none is
  // in scope, e.g. budget exhaustion). Rejections whose diagnostic the
  // semantics already produced (Out.VerifError) pass AddDiag = false.
  auto fail = [&](LiftOutcome O, const std::string &Why, uint64_t FailAddr = 0,
                  bool AddDiag = true) {
    FR.Outcome = O;
    FR.FailReason = Why;
    if (AddDiag) {
      diag::Diagnostic D;
      D.Kind = diag::DiagKind::VerificationError;
      D.Message = Why;
      D.Prov.Origin = diag::Component::Lifter;
      D.Prov.Addr = FailAddr;
      D.Prov.QueryChain = A.solver().recentQueries();
      D.Prov.Worker = diag::workerOrdinal();
      FR.Diags.push_back(std::move(D));
    }
    finish();
    return FR;
  };
  // Unsoundness annotations for unresolved indirections (columns B/C).
  auto unresDiag = [&](const Instr &I, std::string Msg) {
    diag::Diagnostic D;
    D.Kind = diag::DiagKind::UnsoundnessAnnotation;
    D.Message = std::move(Msg);
    D.Prov.Origin = diag::Component::Lifter;
    D.Prov.Addr = I.Addr;
    D.Prov.Mnemonic = I.str();
    D.Prov.QueryChain = A.solver().recentQueries();
    D.Prov.Worker = diag::workerOrdinal();
    return D;
  };

  for (;;) {
    if (!Pending) {
      // Fixpoint reached. If this attempt discovered table-shaped
      // indirections whose index lost its bound, protect those indices
      // and re-explore; otherwise we are done.
      if (Cfg.Sym.Vsa && NewProtected && Attempt < MaxVsaRestarts) {
        restart();
        continue;
      }
      break;
    }
    if (G.Vertices.size() > Cfg.MaxVertices)
      return fail(LiftOutcome::Timeout,
                  "vertex fuel exhausted (partial graph retained)");
    // The progress guard (!empty) guarantees even a microscopic budget
    // leaves at least one explored vertex in the partial graph.
    if (Cfg.MaxSeconds > 0 && Elapsed() > Cfg.MaxSeconds &&
        !G.Vertices.empty())
      return fail(LiftOutcome::Timeout,
                  "wall-clock budget exhausted (partial graph retained)");

    auto [Sigma, Rip] = pop();

    if (diag::Tracer *T = diag::Tracer::active()) {
      diag::TraceEvent E("fixpoint_iter");
      E.hex("fn", Entry);
      E.hex("rip", Rip);
      E.field("pending", static_cast<uint64_t>(Pending));
      E.field("vertices", static_cast<uint64_t>(G.Vertices.size()));
      T->emit(std::move(E));
    }

    // --- Algorithm 1 lines 3-9: find a compatible vertex, join -----------
    VertexKey Key{Rip, ctrlHash(Sigma)};
    Vertex *V = nullptr;
    if (Cfg.EnableJoin) {
      V = G.find(Key);
    } else {
      // Ablation: no joining — only exact subsumption stops exploration.
      for (auto It = G.Vertices.lower_bound(VertexKey{Rip, 0});
           It != G.Vertices.end() && It->first.Rip == Rip; ++It)
        if (Memo.predLeq(Sigma.P, It->second.State.P) &&
            Memo.memLeq(Sigma.M, It->second.State.M)) {
          V = &It->second;
          break;
        }
      if (!V)
        Key.CtrlHash = ++Serial; // force a fresh vertex
    }

    SymState Cur;
    if (V && V->Explored) {
      if (Memo.predLeq(Sigma.P, V->State.P) &&
          Memo.memLeq(Sigma.M, V->State.M))
        continue; // line 4: already covered
      bool Widen = V->JoinCount >= WidenAfterJoins;
      // Protected table indices keep their interval bound through a
      // bounded number of widened joins (then full widening resumes, so
      // termination is unaffected).
      const std::vector<const Expr *> *Prot =
          (Widen && !Protected.empty() &&
           V->JoinCount < WidenAfterJoins + 8)
              ? &Protected
              : nullptr;
      Cur.P = Pred::join(Ctx, V->State.P, Sigma.P, Widen, Prot);
      Cur.M = mem::MemModel::join(V->State.M, Sigma.M);
      V->JoinCount++;
      ++FR.Stats.Joins;
      if (Widen)
        ++FR.Stats.Widenings;
      V->State = Cur;
    } else {
      Cur = Sigma;
      Vertex NV;
      NV.Key = Key;
      NV.State = Cur;
      auto [It, Inserted] = G.Vertices.emplace(Key, std::move(NV));
      static_cast<void>(Inserted);
      V = &It->second;
      ++FR.Stats.Vertices;
    }

    // --- fetch + decode ----------------------------------------------------
    size_t Avail;
    const uint8_t *Bytes = Img.bytesAt(Rip, Avail);
    if (!Bytes || !Img.isExec(Rip))
      return fail(LiftOutcome::UnprovableReturn,
                  "control flow reaches unmapped/non-executable address " +
                      hexStr(Rip),
                  Rip);
    Instr I = x86::decodeInstr(Bytes, Avail, Rip);
    if (!I.isValid())
      return fail(LiftOutcome::UnprovableReturn,
                  "undecodable instruction at " + hexStr(Rip), Rip);
    V->Instr = I;
    V->Explored = true;

    // --- Algorithm 1 lines 10-17: explore ----------------------------------
    StepOut Out = Exec.step(Cur, I, FR.RetSym);
    for (std::string &O : Out.Obligations)
      if (std::find(FR.Obligations.begin(), FR.Obligations.end(), O) ==
          FR.Obligations.end())
        FR.Obligations.push_back(std::move(O));
    // Adopt the step's structured diagnostics. Obligation diags dedup in
    // lockstep with the strings above (re-visits of a vertex regenerate
    // the same assumption text); error diags always land.
    for (diag::Diagnostic &D : Out.Diags) {
      if (D.Kind == diag::DiagKind::ProofObligation) {
        bool Dup = false;
        for (const diag::Diagnostic &Seen : FR.Diags)
          if (Seen.Kind == D.Kind && Seen.Message == D.Message) {
            Dup = true;
            break;
          }
        if (Dup)
          continue;
      }
      FR.Diags.push_back(std::move(D));
    }
    if (Out.UnboundedIndex &&
        std::find(Protected.begin(), Protected.end(), Out.UnboundedIndex) ==
            Protected.end()) {
      Protected.push_back(Out.UnboundedIndex);
      NewProtected = true;
    }
    if (Out.SawConcurrency)
      return fail(LiftOutcome::Concurrency,
                  "call to concurrency primitive " + Out.ExtName, I.Addr);
    if (Out.VerifError)
      // The semantics already attached the structured diagnostic.
      return fail(LiftOutcome::UnprovableReturn, Out.VerifReason, I.Addr,
                  /*AddDiag=*/false);

    // Column A counts resolved indirection *sites*: an indirect jmp/call
    // whose targets were all overapproximatively established. Re-visits of
    // the same vertex do not re-count (the set tracks sites).
    bool Indirect = (I.Mn == Mnemonic::Jmp || I.Mn == Mnemonic::Call) &&
                    I.numOperands() >= 1 && !I.Ops[0].isImm();
    bool AnyUnres = false;
    for (const Succ &S : Out.Succs)
      AnyUnres |= S.K == CtrlKind::UnresJump || S.K == CtrlKind::UnresCall;
    if (Indirect && !AnyUnres && !Out.Succs.empty())
      ResolvedSites.insert(I.Addr);

    for (Succ &S : Out.Succs) {
      Edge E;
      E.From = Key;
      E.Instr = I;
      E.Kind = S.K;
      E.ViaTable = S.ViaTable;
      switch (S.K) {
      case CtrlKind::Fall:
      case CtrlKind::CallExternal: {
        E.To = VertexKey{S.NextAddr, ctrlHash(S.S)};
        G.addEdge(E);
        push(std::move(S.S), S.NextAddr);
        break;
      }
      case CtrlKind::CallInternal: {
        E.To = VertexKey{S.NextAddr, ctrlHash(S.S)};
        // Per-successor callee: a VSA-resolved indirect call fans out to
        // one CallInternal successor per table entry.
        E.CalleeAddr = S.CalleeAddr ? S.CalleeAddr : Out.CalleeAddr;
        FR.Callees.insert(E.CalleeAddr);
        G.addEdge(E);
        push(std::move(S.S), S.NextAddr);
        break;
      }
      case CtrlKind::Ret: {
        E.To = VertexKey{RetTargetRip, 0};
        G.addEdge(E);
        FR.MayReturn = true;
        break;
      }
      case CtrlKind::UnresJump: {
        E.To = VertexKey{UnresolvedTargetRip, 0};
        G.addEdge(E);
        if (UnresJumpSites.insert(I.Addr).second)
          FR.Diags.push_back(unresDiag(
              I, "indirect jump target could not be bounded (rip = " +
                     (S.RipVal ? S.RipVal->str(Ctx) : std::string("?")) +
                     "); path abandoned"));
        // Annotation: stop exploration along this path (Algorithm 1 l.13).
        break;
      }
      case CtrlKind::UnresCall: {
        E.To = VertexKey{S.NextAddr, ctrlHash(S.S)};
        G.addEdge(E);
        if (UnresCallSites.insert(I.Addr).second)
          FR.Diags.push_back(unresDiag(
              I, "indirect call " +
                     (Out.ExtName.empty()
                          ? "(rip = " + (S.RipVal ? S.RipVal->str(Ctx)
                                                  : std::string("?")) +
                                ")"
                          : "to " + Out.ExtName) +
                     " could not be resolved; treated as unknown external "
                     "call"));
        // Treated as an unknown external function: continue (§5.1).
        push(std::move(S.S), S.NextAddr);
        break;
      }
      case CtrlKind::Terminal:
        break;
      }
    }
  }

  finish();
  return FR;
}

BinaryResult Lifter::liftFrom(std::vector<uint64_t> Roots) {
  auto Start = std::chrono::steady_clock::now();
  BinaryResult BR;
  BR.Name = Img.Name;

  // Each function is lifted exactly once, in its own arena; the seen-set
  // tracks both the roots and callees discovered while lifting. Because
  // every lift is isolated, the result set — and after the sort below, the
  // result *order* — does not depend on thread count or scheduling.
  std::set<uint64_t> Queued(Roots.begin(), Roots.end());
  std::vector<FunctionResult> Results;

  unsigned NThreads =
      Cfg.Threads == 0 ? ThreadPool::defaultThreads() : Cfg.Threads;

  if (NThreads <= 1) {
    std::deque<uint64_t> Work(Queued.begin(), Queued.end());
    while (!Work.empty()) {
      uint64_t Entry = Work.front();
      Work.pop_front();
      FunctionResult FR = liftFunction(Entry);
      for (uint64_t Callee : FR.Callees)
        if (Queued.insert(Callee).second)
          Work.push_back(Callee);
      Results.push_back(std::move(FR));
    }
  } else {
    std::mutex Mu; // guards Queued and Results
    ThreadPool Pool(NThreads);
    std::function<void(uint64_t)> LiftTask = [&](uint64_t Entry) {
      FunctionResult FR = liftFunction(Entry);
      std::lock_guard<std::mutex> G(Mu);
      for (uint64_t Callee : FR.Callees)
        if (Queued.insert(Callee).second)
          Pool.submit([&LiftTask, Callee] { LiftTask(Callee); });
      Results.push_back(std::move(FR));
    };
    {
      std::lock_guard<std::mutex> G(Mu);
      for (uint64_t Entry : Queued)
        Pool.submit([&LiftTask, Entry] { LiftTask(Entry); });
    }
    Pool.waitIdle();
  }

  // Deterministic merge: order by entry address (also fixes which failure
  // becomes the binary-level outcome, independent of discovery order).
  std::sort(Results.begin(), Results.end(),
            [](const FunctionResult &A, const FunctionResult &B) {
              return A.Entry < B.Entry;
            });
  for (FunctionResult &FR : Results) {
    if (FR.Outcome != LiftOutcome::Lifted &&
        BR.Outcome == LiftOutcome::Lifted) {
      BR.Outcome = FR.Outcome;
      BR.FailReason = "function " + hexStr(FR.Entry) + ": " + FR.FailReason;
    }
    BR.Total.merge(FR.Stats);
    BR.Functions.push_back(std::move(FR));
  }

  computeMayReturn(BR.Functions);
  BR.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return BR;
}

void computeMayReturn(std::vector<FunctionResult> &Functions) {
  std::map<uint64_t, const FunctionResult *> ByEntry;
  for (const FunctionResult &F : Functions)
    ByEntry[F.Entry] = &F;

  // Is a Ret edge reachable from the entry, given callees' current
  // may-return state? Every round re-walks every function that may still
  // return, through each graph's out-edge index.
  auto retReachable = [&](size_t FI) {
    const HoareGraph &G = Functions[FI].Graph;
    std::set<VertexKey> Seen{G.Initial};
    std::deque<VertexKey> Q{G.Initial};
    while (!Q.empty()) {
      VertexKey K = Q.front();
      Q.pop_front();
      for (const Edge &E : G.outEdges(K)) {
        if (E.To.Rip == RetTargetRip)
          return true;
        if (E.Kind == CtrlKind::CallInternal) {
          auto C = ByEntry.find(E.CalleeAddr);
          if (C != ByEntry.end() && !C->second->MayReturn)
            continue; // return site unreachable
        }
        if (Seen.insert(E.To).second)
          Q.push_back(E.To);
      }
    }
    return false;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t FI = 0; FI < Functions.size(); ++FI) {
      if (!Functions[FI].MayReturn || retReachable(FI))
        continue;
      Functions[FI].MayReturn = false;
      Changed = true;
    }
  }
}

BinaryResult Lifter::liftBinary() { return liftFrom({Img.Entry}); }

BinaryResult Lifter::liftLibrary() {
  std::vector<uint64_t> Roots;
  for (const elf::Symbol &S : Img.Functions)
    Roots.push_back(S.Addr);
  return liftFrom(Roots);
}

} // namespace hglift::hg
