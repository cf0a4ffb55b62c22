#include "export/HoareChecker.h"

#include "diag/Trace.h"
#include "hg/StateMemo.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <mutex>

namespace hglift::exporter {

using hg::Edge;
using hg::FunctionResult;
using hg::HoareGraph;
using hg::Vertex;
using hg::VertexKey;
using sem::CtrlKind;
using sem::StepOut;
using sem::Succ;
using sem::SymExec;

namespace {

/// Is there an edge From -> (some vertex at) Rip? One out-edge index
/// lookup; Rip may be a synthetic target (RetTargetRip, ...).
bool edgeTo(const HoareGraph &G, const VertexKey &From, uint64_t Rip) {
  for (const Edge &E : G.outEdges(From))
    if (E.To.Rip == Rip)
      return true;
  return false;
}

/// Does some vertex at address Rip entail the post-state S, with an edge
/// From -> that address present? The entailment probes go through the
/// function-local leq memo (re-derived post-states repeat whenever several
/// predecessors reach the same invariant).
bool covered(const HoareGraph &G, const VertexKey &From, uint64_t Rip,
             const sem::SymState &S, hg::StateLeqMemo &Memo) {
  if (!edgeTo(G, From, Rip))
    return false;
  for (auto It = G.Vertices.lower_bound(VertexKey{Rip, 0});
       It != G.Vertices.end() && It->first.Rip == Rip; ++It) {
    if (Memo.predLeq(S.P, It->second.State.P) &&
        Memo.memLeq(S.M, It->second.State.M))
      return true;
  }
  return false;
}

/// Root-cause detail for an uncovered post-state: which part of covered()
/// failed, and — when it was entailment — the first postcondition clause
/// the first candidate invariant does not entail (Pred::leqExplain's
/// clause numbering).
struct UncoveredWhy {
  int ClauseId = -1;
  std::string Clause;
  std::string Detail;
};

UncoveredWhy explainUncovered(const HoareGraph &G, const VertexKey &From,
                              uint64_t Rip, const sem::SymState &S,
                              const expr::ExprContext &Ctx) {
  UncoveredWhy W;
  if (!edgeTo(G, From, Rip)) {
    W.Detail = "no edge to " + hexStr(Rip) + " in the Hoare graph";
    return W;
  }
  auto It = G.Vertices.lower_bound(VertexKey{Rip, 0});
  if (It == G.Vertices.end() || It->first.Rip != Rip) {
    W.Detail = "no invariant vertex at " + hexStr(Rip);
    return W;
  }
  // Several invariants may exist at Rip (one per control context); explain
  // against the first candidate — enough to show what kind of clause broke.
  const sem::SymState &Target = It->second.State;
  if (auto F = pred::Pred::leqExplain(Ctx, S.P, Target.P)) {
    W.ClauseId = F->ClauseId;
    W.Clause = F->Clause;
    W.Detail = "postcondition clause #" + std::to_string(F->ClauseId) +
               " `" + F->Clause + "` not entailed (" + F->Why + ")";
    return W;
  }
  std::string MemWhy = mem::MemModel::leqExplain(Ctx, S.M, Target.M);
  W.Detail = MemWhy.empty()
                 ? std::string("a later candidate invariant at this address "
                               "rejected the post-state")
                 : "memory model not entailed: " + MemWhy;
  return W;
}

} // namespace

CheckResult checkFunction(const CheckContext &C, const FunctionResult &F) {
  CheckResult R;
  if (F.Outcome != hg::LiftOutcome::Lifted)
    return R;
  // Check inside the function's own arena: every expression in F.Graph is
  // interned there, and the re-derived successors must live in the same
  // context for entailment to be meaningful. A task-local executor shares
  // the semantics but none of Algorithm 1's state. Everything touched here
  // — the executor, F's arena, the memo — is private to one function,
  // which is what licenses the parallel fan-out in checkBinary().
  smt::RelationSolver &Solver = F.Arena->solver();
  SymExec Exec(F.Arena->ctx(), Solver, C.Img, C.Sym);
  hg::StateLeqMemo Memo;
  const expr::ExprContext &Ctx = F.ctx();
  diag::TraceContext::FunctionScope TraceFn(F.Entry);

  if (diag::Tracer *T = diag::Tracer::active()) {
    diag::TraceEvent E("check_begin");
    E.hex("fn", F.Entry);
    E.field("vertices", static_cast<uint64_t>(F.Graph.Vertices.size()));
    T->emit(std::move(E));
  }

  // Checker failures carry the failing edge in their provenance; ClauseId
  // is filled when entailment (not edge existence) was the root cause.
  auto addFailure = [&](const VertexKey &Key, const hg::Vertex &V,
                        const std::string &Legacy, const UncoveredWhy &W) {
    R.Failures.push_back(Legacy);
    diag::Diagnostic D;
    D.Kind = diag::DiagKind::VerificationError;
    D.Message = W.Detail.empty() ? Legacy : Legacy + ": " + W.Detail;
    D.Prov.Origin = diag::Component::HoareChecker;
    D.Prov.FunctionEntry = F.Entry;
    D.Prov.Addr = Key.Rip;
    D.Prov.Mnemonic = V.Instr.str();
    D.Prov.ClauseId = W.ClauseId;
    D.Prov.ClauseText = W.Clause;
    D.Prov.QueryChain = Solver.recentQueries();
    D.Prov.Worker = diag::workerOrdinal();
    R.Diags.push_back(std::move(D));
  };

  for (const auto &[Key, V] : F.Graph.Vertices) {
    if (!V.Explored || !V.Instr.isValid())
      continue;

    StepOut Out = Exec.step(V.State, V.Instr, F.RetSym);
    if (Out.VerifError) {
      ++R.Theorems;
      addFailure(Key, V,
                 "vertex " + hexStr(Key.Rip) +
                     ": semantics rejected: " + Out.VerifReason,
                 UncoveredWhy{});
      continue;
    }

    for (const Succ &S : Out.Succs) {
      ++R.Theorems;
      bool OK = false;
      bool Entail = false; // coverage (vs. special-edge existence) theorem
      switch (S.K) {
      case CtrlKind::Fall:
      case CtrlKind::CallInternal:
      case CtrlKind::CallExternal:
      case CtrlKind::UnresCall:
        Entail = true;
        OK = covered(F.Graph, Key, S.NextAddr, S.S, Memo);
        break;
      case CtrlKind::Ret:
        OK = edgeTo(F.Graph, Key, hg::RetTargetRip);
        break;
      case CtrlKind::UnresJump:
        OK = edgeTo(F.Graph, Key, hg::UnresolvedTargetRip);
        break;
      case CtrlKind::Terminal:
        OK = true; // no proof obligation: execution stops
        break;
      }

      if (diag::Tracer *T = diag::Tracer::active()) {
        diag::TraceEvent E("edge_check");
        E.hex("fn", F.Entry);
        E.hex("from", Key.Rip);
        E.hex("to", S.K == CtrlKind::Ret          ? hg::RetTargetRip
                    : S.K == CtrlKind::UnresJump ? hg::UnresolvedTargetRip
                                                 : S.NextAddr);
        E.field("ok", OK);
        T->emit(std::move(E));
      }

      if (OK) {
        ++R.Proven;
        continue;
      }
      UncoveredWhy W;
      if (Entail)
        W = explainUncovered(F.Graph, Key, S.NextAddr, S.S, Ctx);
      else
        W.Detail = S.K == CtrlKind::Ret
                       ? "no return edge in the Hoare graph"
                       : "no unresolved-jump edge in the Hoare graph";
      addFailure(Key, V,
                 "vertex " + hexStr(Key.Rip) + " (" + V.Instr.str() +
                     "): post-state at " + hexStr(S.NextAddr) +
                     " not entailed by any target invariant",
                 W);
    }
  }

  if (diag::Tracer *T = diag::Tracer::active()) {
    diag::TraceEvent E("check_end");
    E.hex("fn", F.Entry);
    E.field("theorems", static_cast<uint64_t>(R.Theorems));
    E.field("proven", static_cast<uint64_t>(R.Proven));
    T->emit(std::move(E));
  }
  return R;
}

CheckResult checkBinary(const CheckContext &C, const hg::BinaryResult &B,
                        unsigned Threads) {
  // Counting a hit's re-proof instead of repeating it also keeps its
  // arena's fresh-variable counter where a cold run's would be, so warm
  // and cold output stay byte-identical.
  auto checkOne = [&C](const FunctionResult &F) {
    if (!F.Reproven)
      return checkFunction(C, F);
    CheckResult R;
    R.Theorems = R.Proven = *F.Reproven;
    return R;
  };
  unsigned NThreads =
      Threads == 0 ? ThreadPool::defaultThreads() : Threads;
  // Per-function results land in a slot vector and merge in function
  // order, so the outcome — including the order of Failures — is the
  // same for every thread count.
  std::vector<CheckResult> Slots(B.Functions.size());
  if (NThreads <= 1 || B.Functions.size() <= 1) {
    for (size_t I = 0; I < B.Functions.size(); ++I)
      Slots[I] = checkOne(B.Functions[I]);
  } else {
    ThreadPool Pool(NThreads);
    for (size_t I = 0; I < B.Functions.size(); ++I)
      Pool.submit([&checkOne, &B, &Slots, I] {
        Slots[I] = checkOne(B.Functions[I]);
      });
    Pool.waitIdle();
  }
  CheckResult R;
  for (CheckResult &S : Slots)
    R.merge(S);
  return R;
}

} // namespace hglift::exporter
