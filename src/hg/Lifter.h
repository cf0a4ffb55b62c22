//===- Lifter.h - Algorithm 1 + the §4.2 call extension --------*- C++ -*-===//
//
// The public lifting API:
//
//   * liftFunction(entry) runs Algorithm 1 from one entry point in a fresh
//     context-free state (the return address is the symbol S_entry), until
//     the bag is empty, a sanity property fails, or fuel runs out;
//   * liftBinary() starts at the ELF entry point and lifts every internal
//     function reachable through (resolved) calls, each exactly once;
//   * liftLibrary() lifts every exported function symbol, the way the
//     paper handles Xen's shared objects (§5.1, "as reported by nm").
//
// Outcomes mirror Table 1's columns: lifted / unprovable-return-address /
// concurrency / timeout, with counts of resolved indirections (A),
// unresolved jumps (B) and unresolved calls (C).
//
// Functions are lifted in isolation: each lift runs in its own LiftArena
// (a fresh expression context, relation solver, and symbolic executor),
// which the FunctionResult keeps alive. Isolation is what makes the
// work-queue parallel engine (LiftConfig::Threads > 1) deterministic —
// hash-consing tables, fresh-variable counters, and solver caches are
// never shared between concurrently lifted functions, so every function's
// result is a pure function of (image, config, entry) and independent of
// scheduling. Results are merged sorted by entry address, so an N-thread
// lift is observably identical to the serial one.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_HG_LIFTER_H
#define HGLIFT_HG_LIFTER_H

#include "diag/Diag.h"
#include "hg/HoareGraph.h"
#include "support/LiftStats.h"

#include <memory>
#include <optional>

namespace hglift::hg {

enum class LiftOutcome : uint8_t {
  Lifted,
  UnprovableReturn, ///< any sanity-property verification error
  Concurrency,
  Timeout,
};

const char *liftOutcomeName(LiftOutcome O);

class FunctionCache;

/// Joins at one vertex before widening kicks in.
constexpr unsigned WidenAfterJoins = 3;

struct LiftConfig {
  sem::SymConfig Sym;
  smt::RelationSolver::Config Solver;
  /// Fuel: maximum vertices per function before declaring a timeout.
  size_t MaxVertices = 50000;
  /// Wall-clock budget per function, seconds (paper: 4h; our corpus is
  /// smaller). 0 = unlimited.
  double MaxSeconds = 60.0;
  /// Worker threads for liftBinary()/liftLibrary(). 1 = serial (in the
  /// calling thread); 0 = hardware concurrency. Results are identical for
  /// every value (see the determinism note above).
  unsigned Threads = 1;
  /// Disable joining entirely (ablation: state explosion).
  bool EnableJoin = true;
  /// Disable the control-immediates compatibility exception (ablation).
  bool CtrlImmediateException = true;
  /// Optional per-function artifact cache (store/Store.h), consulted by
  /// liftFunction() before running Algorithm 1 and populated after every
  /// successful lift. Non-owning; must be thread-safe when Threads > 1.
  /// Not part of the result semantics: a correct cache is observably
  /// invisible (every hit is re-proven through Step 2 at lookup).
  FunctionCache *Cache = nullptr;
  bool operator==(const LiftConfig &) const = default;
};

/// Everything one function lift allocates from: the hash-consing expression
/// context, the relation solver (with its cache and Z3 backend), and the
/// symbolic executor. Expressions are interned pointers — comparable only
/// within one context — so any consumer reading a FunctionResult's
/// predicates must use that result's arena context, not another lifter's.
class LiftArena {
public:
  LiftArena(const elf::BinaryImage &Img, const LiftConfig &Cfg);
  ~LiftArena();

  LiftArena(const LiftArena &) = delete;
  LiftArena &operator=(const LiftArena &) = delete;

  expr::ExprContext &ctx() { return *Ctx; }
  smt::RelationSolver &solver() { return *Solver; }
  sem::SymExec &exec() { return *Exec; }

private:
  std::unique_ptr<expr::ExprContext> Ctx;
  std::unique_ptr<smt::RelationSolver> Solver;
  std::unique_ptr<sem::SymExec> Exec;
};

struct FunctionResult {
  uint64_t Entry = 0;
  LiftOutcome Outcome = LiftOutcome::Lifted;
  std::string FailReason;
  HoareGraph Graph;
  /// The function's return-address symbol S_entry.
  const expr::Expr *RetSym = nullptr;

  bool MayReturn = false;
  unsigned ResolvedIndirections = 0; ///< column A
  unsigned UnresolvedJumps = 0;      ///< column B
  unsigned UnresolvedCalls = 0;      ///< column C
  std::vector<std::string> Obligations;
  /// Every diagnostic this lift produced — the obligations above plus
  /// verification errors and unsoundness annotations — as structured
  /// records with provenance (diag::Diagnostic). Sorted by (address,
  /// kind, message); with functions merged in entry order this yields the
  /// report's deterministic (function-entry, address) diagnostic order at
  /// any thread count.
  std::vector<diag::Diagnostic> Diags;
  std::set<uint64_t> Callees;
  /// What Algorithm 1 did here (vertices, joins, solver calls, ...);
  /// Stats.Seconds is the lift's wall time, from arena construction
  /// through the weird-edge pass.
  LiftStats Stats;
  /// Set on a store hit only: how many Step-2 theorems the store's
  /// re-proof of this graph discharged at lookup (every one of them;
  /// a hit that fails its re-proof is a miss). exporter::checkBinary
  /// counts these instead of proving the graph a second time.
  std::optional<size_t> Reproven;

  /// The arena every expression in Graph/RetSym was interned in. Shared so
  /// FunctionResult stays copyable; never null.
  std::shared_ptr<LiftArena> Arena;

  /// The expression context this result's predicates live in.
  expr::ExprContext &ctx() const { return Arena->ctx(); }

  size_t numInstructions() const { return Graph.instructionAddrs().size(); }
};

struct BinaryResult {
  std::string Name;
  LiftOutcome Outcome = LiftOutcome::Lifted;
  std::string FailReason;
  std::vector<FunctionResult> Functions;

  size_t totalInstructions() const;
  size_t totalStates() const;
  unsigned totalA() const, totalB() const, totalC() const;
  std::vector<std::string> allObligations() const;
  /// Every function's diagnostics, concatenated in entry-address order
  /// (functions are merged sorted, so this is deterministic for every
  /// thread count).
  std::vector<diag::Diagnostic> allDiagnostics() const;
  double Seconds = 0;
  /// Sum of the per-function stats (exact regardless of thread count).
  LiftStats Total;
};

/// §4.2.2 reachability: a call's return site is only truly reachable if
/// the callee may return. Clears MayReturn of every function whose entry
/// reaches no Ret edge once return sites of non-returning callees are cut,
/// repeated to the greatest fixpoint over the call graph (flags are only
/// ever cleared).
void computeMayReturn(std::vector<FunctionResult> &Functions);

/// Abstract per-function artifact cache. Implemented by store::CacheStore
/// (content-addressed on-disk store); declared here so the Lifter can
/// consult it without depending on the store layer. Both members may be
/// called concurrently from the parallel lifting engine's workers.
class FunctionCache {
public:
  virtual ~FunctionCache();

  /// A previously stored result for (Img, Cfg, Entry), or nullopt. A hit
  /// must be exactly what liftFunction() would produce: implementations
  /// key on content digests and re-prove it through Step 2, never trusting
  /// stored bytes, and record that proof's theorem count in its Reproven.
  virtual std::optional<FunctionResult> lookup(const elf::BinaryImage &Img,
                                               const LiftConfig &Cfg,
                                               uint64_t Entry) = 0;

  /// Offer a freshly lifted result for storage. Only called with
  /// Outcome == Lifted (failed lifts are cheap to reproduce and carry
  /// image-wide failure causes the per-function digests cannot key).
  virtual void store(const elf::BinaryImage &Img, const LiftConfig &Cfg,
                     const FunctionResult &F) = 0;
};

class Lifter {
public:
  Lifter(const elf::BinaryImage &Img, LiftConfig Cfg);

  FunctionResult liftFunction(uint64_t Entry);
  /// Lift from the ELF entry point, following internal calls.
  BinaryResult liftBinary();
  /// Lift every exported function symbol (shared-object mode).
  BinaryResult liftLibrary();

  const elf::BinaryImage &image() const { return Img; }
  const LiftConfig &config() const { return Cfg; }

private:
  BinaryResult liftFrom(std::vector<uint64_t> Roots);
  /// Algorithm 1 for one function, in a fresh arena.
  FunctionResult liftUncached(uint64_t Entry);
  uint64_t ctrlHash(const sem::SymState &S) const;

  const elf::BinaryImage &Img;
  LiftConfig Cfg;
};

} // namespace hglift::hg

#endif // HGLIFT_HG_LIFTER_H
