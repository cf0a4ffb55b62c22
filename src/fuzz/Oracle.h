//===- Oracle.h - Concrete-execution soundness oracle -----------*- C++ -*-===//
//
// The overapproximation witness of Definition 4.4 as a reusable library:
// run a lifted binary on the concrete Machine from randomized initial
// states and check, at every reached state,
//
//   property 1: some explored vertex invariant at the concrete rip admits
//               the concrete state, and
//   property 2: some symbolic successor of an admitting vertex (computed
//               with the function's own arena executor — the same τ
//               Algorithm 1 ran) admits the concrete post-state.
//
// Expressions with Fresh leaves are havoc (existentially quantified) and
// admit any value; clauses mentioning them are skipped rather than
// decided. Unlike the original differential test, the oracle also decides
// the flag abstraction: a Cmp/Test/Res/ZeroOf FlagState with evaluable
// operands must agree with the machine's ZF/SF/CF/OF (for the subset each
// kind constrains).
//
// Violations are collected, not asserted, so a fuzzing campaign can count
// them, attribute kills, and hand failing binaries to the reducer.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_FUZZ_ORACLE_H
#define HGLIFT_FUZZ_ORACLE_H

#include "expr/Eval.h"
#include "hg/Lifter.h"
#include "semantics/Machine.h"
#include "support/Rng.h"

#include <array>
#include <optional>
#include <string>
#include <vector>

namespace hglift::fuzz {

/// Concrete valuation of the symbolic entry frame: the initial register
/// file, the return-address sentinel, and the entry memory snapshot that
/// grounds init-register variables and Deref leaves.
struct OracleCtx {
  std::array<uint64_t, x86::NumGPRs> Init{}; ///< entry register file
  uint64_t RetAddr = 0;                      ///< concrete value of S_entry
  const expr::ExprContext *Ctx = nullptr;
  sem::Machine EntryM; ///< machine snapshot at function entry

  explicit OracleCtx(const elf::BinaryImage &Img) : EntryM(Img) {}

  expr::VarValuation vars() const;
  expr::MemOracle initMem() const;
};

/// Does the concrete state (M.Regs, M's flags, M's memory) satisfy P?
/// Clauses with Fresh leaves are skipped (havoc); bottom admits nothing.
bool stateSatisfies(const pred::Pred &P, const OracleCtx &CC,
                    const sem::Machine &M);

/// The first clause of P the concrete state falsifies, concretized (every
/// operand pre-evaluated under CC) so the witness layer can record and
/// replay it without symbolic machinery. Kind::Bottom means P is bottom
/// (admits nothing); an unevaluable clause reports the clause with its
/// symbolic text only.
struct SatFailure {
  enum class Kind : uint8_t { Bottom, Reg, Flags, Mem, Range };
  Kind K = Kind::Bottom;
  bool Evaluated = false;  ///< operands evaluated (claim is replayable)
  unsigned RegNum = 0;     ///< Reg: register number
  uint64_t Expect = 0;     ///< Reg/Mem: value the abstraction claims
  uint64_t MemAddr = 0;    ///< Mem: concrete cell address
  uint32_t MemSize = 0;    ///< Mem: cell size in bytes
  pred::RelOp Op = pred::RelOp::Eq; ///< Range
  uint64_t Bound = 0;      ///< Range: clause bound
  uint64_t Value = 0;      ///< Range: concrete value of the bound expr
  std::string FlagsPinned; ///< Flags: subset of "zsco" the state pins
  bool ExpZF = false, ExpSF = false, ExpCF = false, ExpOF = false;
  std::string Clause;      ///< symbolic text of the clause
};

/// stateSatisfies with diagnosis: nullopt iff the state satisfies P,
/// otherwise the first falsified clause. stateSatisfies is this with the
/// explanation discarded — the two cannot drift. RenderClause=false skips
/// building the symbolic clause text (hot paths scan many non-admitting
/// vertices; callers re-explain the designated one with rendering on).
std::optional<SatFailure> stateSatisfiesExplain(const pred::Pred &P,
                                                const OracleCtx &CC,
                                                const sem::Machine &M,
                                                bool RenderClause = true);

/// Explored vertices of F at the given rip (shared with the witness
/// searcher, which replays the same admission judgement).
std::vector<const hg::Vertex *> verticesAt(const hg::FunctionResult &F,
                                           uint64_t Rip);

/// One soundness violation found by a concrete walk.
struct OracleViolation {
  uint64_t Function = 0; ///< entry of the violated function
  uint64_t Addr = 0;     ///< concrete rip where the property failed
  std::string Message;
};

struct OracleResult {
  size_t Runs = 0;   ///< concrete walks performed
  size_t States = 0; ///< concrete states checked against property 1
  std::vector<OracleViolation> Violations;

  bool clean() const { return Violations.empty(); }
  void merge(const OracleResult &O) {
    Runs += O.Runs;
    States += O.States;
    Violations.insert(Violations.end(), O.Violations.begin(),
                      O.Violations.end());
  }
};

/// Rich detail of one walk violation: which of the two properties failed,
/// where, and the first falsified clause of the designated invariant —
/// everything a witness record needs.
struct WalkViolation {
  enum class Kind : uint8_t {
    NoAdmittingVertex,    ///< property 1: no invariant at rip admits M
    SuccessorNotAdmitted, ///< property 2: concrete step not covered
    MissingRetEdge,       ///< property 2: concrete return, no Ret edge
  };
  Kind K = Kind::NoAdmittingVertex;
  uint64_t Addr = 0;    ///< rip the violation is reported at
  uint64_t PrevRip = 0; ///< rip executed just before Addr (0 at entry)
  uint64_t NextRip = 0; ///< SuccessorNotAdmitted: concrete post-state rip
  std::string Message;  ///< same text walkOnce has always reported
  bool HasFail = false; ///< Fail below is meaningful
  SatFailure Fail;      ///< first falsified clause of a designated pred
};

/// Outcome of one deterministic concrete walk from a fixed entry state.
struct WalkResult {
  size_t States = 0;           ///< states checked against property 1
  std::vector<uint64_t> Trace; ///< rips executed before the stop
  bool Violated = false;
  WalkViolation V;
};

/// Walk one concrete run through F's Hoare Graph from a *fixed* initial
/// register file (InitRegs' RSP slot is ignored; setupCall decides the
/// stack) and machine seed, stopping at the first violation. This is the
/// deterministic core: walkOnce draws a random entry state and delegates
/// here. Requires: no StepMutator installed.
WalkResult walkFrom(const elf::BinaryImage &Img, const hg::FunctionResult &F,
                    const std::array<uint64_t, x86::NumGPRs> &InitRegs,
                    uint64_t MachineSeed, int MaxSteps = 300);

/// Does the walkFrom run from the same entry state bring Site's rip up?
/// Runs the bare Machine under walkFrom's own stop rules (no explored
/// vertex at the rip, any non-Running status, MaxSteps) without the
/// admission checks. walkFrom executes the same machine steps and never
/// stops later, so a false answer means no walkFrom run can execute Site,
/// report a violation at it, or report one right after it.
bool arrivesAt(const elf::BinaryImage &Img, const hg::FunctionResult &F,
               const std::array<uint64_t, x86::NumGPRs> &InitRegs,
               uint64_t MachineSeed, uint64_t Site, int MaxSteps = 300);

/// Walk one concrete run through F's Hoare Graph, appending any violations
/// to Out. The walk starts at F.Entry with a random register file drawn
/// from R and follows the machine until control leaves the function.
/// Requires: no StepMutator installed (the oracle is the clean-semantics
/// judge; property 2 re-runs the arena executor).
void walkOnce(const elf::BinaryImage &Img, const hg::FunctionResult &F,
              Rng &R, OracleResult &Out);

/// Run the oracle over every lifted function of R: RunsPerFunction
/// concrete walks each, seeded deterministically from Seed.
OracleResult runOracle(const elf::BinaryImage &Img, const hg::BinaryResult &R,
                       uint64_t Seed, int RunsPerFunction);

} // namespace hglift::fuzz

#endif // HGLIFT_FUZZ_ORACLE_H
