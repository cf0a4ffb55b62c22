//===- SymExec.h - The predicate transformer τ (§4) -------------*- C++ -*-===//
//
// Symbolically executes one instruction on a symbolic state ⟨P, M⟩,
// producing the set of successor states of Definition 4.2:
//
//   step_Σ(σ) = { ⟨P', M'⟩ | P' ∈ τ(P, M') ∧ M' ∈ ins(R, M) }
//
// Memory operands are evaluated to constant-expressions and inserted into
// the memory model; each nondeterministic insertion outcome yields its own
// successor (this is where the §2 weird edge forks into the aliasing and
// separation worlds). Control flow is resolved here too: direct branches,
// conditional branches (with branch-condition clauses pushed into the
// successor predicates), bounded jump-table indirections, returns (with
// the return-address-integrity and calling-convention checks), and calls
// (classified internal / external / unresolved for the algorithm's §4.2
// treatment).
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SEMANTICS_SYMEXEC_H
#define HGLIFT_SEMANTICS_SYMEXEC_H

#include "diag/Diag.h"
#include "elf/Binary.h"
#include "memmodel/MemModel.h"
#include "pred/Pred.h"
#include "support/LiftStats.h"
#include "x86/Decoder.h"

#include <string>
#include <vector>

namespace hglift::sem {

using expr::Expr;
using expr::ExprContext;

struct SymState {
  pred::Pred P;
  mem::MemModel M;
};

/// How control leaves the instruction in a given successor.
enum class CtrlKind : uint8_t {
  Fall,         ///< to NextAddr (fall-through, direct or resolved jump)
  Ret,          ///< function returns to its caller (RipVal is the symbol)
  CallInternal, ///< call to CalleeAddr; successor is the return site
  CallExternal, ///< call to external ExtName; successor is the return site
  Terminal,     ///< execution stops (exit-like, hlt, ud2)
  UnresJump,    ///< indirect jump could not be bounded (annotation B)
  UnresCall,    ///< indirect call could not be resolved (annotation C)
};

struct Succ {
  SymState S;
  CtrlKind K = CtrlKind::Fall;
  uint64_t NextAddr = 0;
  /// For Ret/Unres*: the symbolic rip value, for diagnostics and export.
  const Expr *RipVal = nullptr;
  /// For CallInternal: the callee's entry address (per-successor, so a
  /// table-resolved indirect call yields one successor per callee).
  uint64_t CalleeAddr = 0;
  /// Non-zero when this successor came from a VSA table resolution: the
  /// table's first-entry address, carried into the graph edge and the
  /// DotExport provenance label.
  uint64_t ViaTable = 0;
};

struct StepOut {
  std::vector<Succ> Succs;
  /// Set when a sanity property is violated (unprovable return address,
  /// calling-convention violation, undecodable instruction, ...). The
  /// whole function is rejected, per §5.1.
  bool VerifError = false;
  std::string VerifReason;
  /// Assumptions and MUST-PRESERVE obligations generated at this step.
  std::vector<std::string> Obligations;
  /// The same facts, structured: one Diagnostic per obligation (kind
  /// ProofObligation) plus one per verification error, each carrying
  /// provenance (instruction address, mnemonic, the solver's recent
  /// relation-query chain). Filled by step() after the semantics ran;
  /// FunctionEntry is stamped later by whoever knows it (the Lifter or
  /// the Step-2 checker).
  std::vector<diag::Diagnostic> Diags;
  /// A pthread_*-style call was seen: the binary is out of scope.
  bool SawConcurrency = false;
  /// For CallInternal successors: the callee's entry address.
  uint64_t CalleeAddr = 0;
  /// For CallExternal/UnresCall successors: the callee's name if known.
  std::string ExtName;
  /// Number of distinct jump-table targets resolved here (column A).
  unsigned ResolvedTargets = 0;
  /// Set when an indirect transfer matched a table shape but its index had
  /// no usable bound under the current invariant. The lifter protects this
  /// expression across widening joins and re-explores the function (see
  /// docs/VSA.md), turning "unbounded" into a resolved table when the
  /// guard clause survives.
  const Expr *UnboundedIndex = nullptr;
};

struct SymConfig {
  mem::UnknownPolicy Policy = mem::UnknownPolicy::BranchAliasOrSep;
  /// Maximum enumerated jump-table entries before giving up (annotation).
  unsigned MaxJumpTableEntries = 1024;
  /// Value-set analysis for indirect jumps/calls (docs/VSA.md). Off
  /// reproduces the legacy absolute-jump-table-only resolver exactly.
  bool Vsa = true;
  /// Cap on distinct targets one VSA-resolved site may fan out to.
  unsigned VsaMaxTargets = 64;
  bool operator==(const SymConfig &) const = default;
};

/// Test-only semantics-mutation hook (mutation testing of the verifier,
/// src/fuzz). When installed, every SymExec::step() passes its StepOut
/// through mutate() right after the real semantics ran, letting a campaign
/// inject deliberately-wrong postconditions and measure whether the Step-2
/// checker or the concrete-execution oracle notices. Implementations must
/// be deterministic functions of (Out, Pre, I) — no RNG, no global state —
/// or campaign reproducibility breaks.
class StepMutator {
public:
  virtual ~StepMutator();
  virtual void mutate(StepOut &Out, const SymState &Pre, const x86::Instr &I,
                      ExprContext &Ctx) = 0;
};

/// Install M process-wide (nullptr to uninstall); returns the previous
/// hook. Mirrors the diag::Tracer pattern: one relaxed atomic load on the
/// hot path when no mutator is installed. Mutation campaigns are serial by
/// design (the hook is global), so install/uninstall only from one thread
/// while no concurrent lifts are running.
StepMutator *installStepMutator(StepMutator *M);
StepMutator *installedStepMutator();

class SymExec {
public:
  SymExec(ExprContext &Ctx, smt::RelationSolver &Solver,
          const elf::BinaryImage &Img, SymConfig Cfg)
      : Ctx(Ctx), Solver(Solver), Img(Img), Cfg(Cfg) {}

  /// Execute one instruction. The entry symbol EntryRetSym identifies the
  /// current function's return-address symbol (a_r or S_f), needed for the
  /// return checks.
  StepOut step(const SymState &S, const x86::Instr &I,
               const Expr *EntryRetSym);

  /// Optional stats sink: counts symbolic steps and nondeterministic forks
  /// (successors beyond the first). Pass nullptr to detach. The sink is not
  /// synchronized — one SymExec, one lifting thread.
  void setStats(LiftStats *Sink) { Stats = Sink; }

  /// External functions known to never return (hard-coded, §4.2.1).
  static bool isTerminatingExternal(const std::string &Name);
  /// pthread-style concurrency entry points (out of scope, §5.1).
  static bool isConcurrencyExternal(const std::string &Name);

  const SymConfig &config() const { return Cfg; }

private:
  // Memory access helpers; each returns one entry per nondeterministic
  // memory-model outcome.
  struct ReadRes {
    SymState S;
    const Expr *Val;
  };
  std::vector<ReadRes> readMem(const SymState &S, const Expr *Addr,
                               unsigned Size, StepOut &Out);
  std::vector<SymState> writeMem(const SymState &S, const Expr *Addr,
                                 unsigned Size, const Expr *Val,
                                 StepOut &Out);

  const Expr *memAddrExpr(const SymState &S, const x86::Instr &I,
                          const x86::MemOperand &M);

  /// Resolution of a symbolic rip value.
  struct RipRes {
    enum class Kind : uint8_t { Imm, Table, RetSym, Unresolved } K;
    uint64_t Addr = 0;
    std::vector<uint64_t> Targets;
    /// For Table: the table's first-entry address (edge provenance).
    uint64_t TableAddr = 0;
    /// True when the resolution needed the extended VSA machinery and must
    /// therefore be annotated with a provenance obligation.
    bool UsedExtended = false;
    /// For Unresolved: the index of a recognized-but-unbounded table shape.
    const Expr *UnboundedIndex = nullptr;
  };
  RipRes resolveRip(const Expr *Val, const pred::Pred &P);

  /// Clean the state for a function call (§4.2.1): havoc volatile
  /// registers and non-stack memory values, keep the local frame; emit
  /// MUST-PRESERVE obligations for stack pointers escaping into the call.
  void cleanForCall(SymState &S, const std::string &CalleeName,
                    uint64_t CallAddr, StepOut &Out);

  /// Add the branch-condition clause for condition CC (taken or not) to P.
  /// Returns false if the clause contradicts P (successor unreachable).
  bool addBranchClause(pred::Pred &P, x86::Cond CC, bool Taken);

  StepOut stepImpl(const SymState &S, const x86::Instr &I,
                   const Expr *EntryRetSym);

  ExprContext &Ctx;
  smt::RelationSolver &Solver;
  const elf::BinaryImage &Img;
  SymConfig Cfg;
  LiftStats *Stats = nullptr;
};

} // namespace hglift::sem

#endif // HGLIFT_SEMANTICS_SYMEXEC_H
