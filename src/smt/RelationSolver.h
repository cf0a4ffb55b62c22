//===- RelationSolver.h - Deciding necessarily-relations -------*- C++ -*-===//
//
// Decides the necessarily-relations of Definition 3.6 between symbolic
// regions, given the current predicate. Queries go through one entry
// point, decide(), behind which sits a tiered portfolio:
//
//   tier 0  syntactic discharge: identical regions, or a linear difference
//           that is constant (this decides most queries);
//   tier 1  interval/constant reasoning over the predicate's range clauses
//           (Pred::intervalOfForm on the linearized difference — this
//           resolves jump-table-index vs. return-address separation);
//   -----   allocation-class assumptions: a stack-frame address (rsp0-
//           based) and a global (numeric) or external (heap) address are
//           assumed separate — the paper's "implicit assumptions" (§5.2),
//           surfaced as explicit proof obligations (not a proof tier);
//   tier 2  Z3 with a persistent, batched-assertion context, exactly as
//           the paper uses Z3 ("the SMT solver Z3 is used to establish
//           whether these necessarily-relations hold for symbolic
//           addresses"). An admission filter skips round trips that
//           provably (or, for the Eq-guarded free-variable rule,
//           empirically) cannot yield a definite relation; a skipped
//           query degrades to Unknown, which is always sound.
//
// The differential harness (tests/solver_portfolio_test.cpp, and
// bench_shard's differential phase) replays recorded queries through each
// tier in isolation (decideWithTierOnly) and checks that no cheap tier
// ever contradicts a forced Z3 replay, the solver's reference.
//
// Results are cached. The cache key is the exact query identity
//   (addr0, size0, addr1, size1, Pred::version())
// where the addresses are interned Expr pointers (pointer equality ==
// structural equality within one ExprContext; Expr::hashValue() is the
// key's hash function) and the version is the predicate's monotone stamp.
// Invalidation rule: any clause mutation re-stamps the Pred from a
// process-wide counter, so entries keyed under the old stamp can never be
// hit again — mutation IS invalidation. When the maps reach CacheCap,
// stale-version entries are swept (LiftStats::RelCacheInvalidated); if the
// sweep frees nothing, the still-live entries are cleared (counted
// separately in LiftStats::RelCacheEvicted). mustEqual() is memoized the
// same way. Every counter is written once, into the attached LiftStats.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SMT_RELATIONSOLVER_H
#define HGLIFT_SMT_RELATIONSOLVER_H

#include "pred/Pred.h"
#include "smt/Region.h"
#include "support/LiftStats.h"

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hglift::smt {

/// An assumption the solver had to make; surfaced as a proof obligation in
/// the lifted output (§7: "assumptions are enumerated explicitly").
struct Assumption {
  std::string Text;
};

/// Allocation class of an address, for the separation assumptions.
enum class AllocClass : uint8_t {
  StackFrame, ///< rsp0 + k
  Global,     ///< numeric constant (inside the binary's sections)
  Heap,       ///< based on an External variable (e.g. malloc result)
  ArgPtr,     ///< single initial-register base (pointer argument) + k
  Other,      ///< anything else
};

AllocClass classifyAddr(const expr::Expr *Addr, const expr::ExprContext &Ctx);
/// Same classification from an already-computed linear form (the portfolio
/// path linearizes once and reuses the form everywhere).
AllocClass classifyForm(const expr::LinearForm &LF,
                        const expr::ExprContext &Ctx);

/// Which layer of the portfolio decided a query. Numeric values are stable
/// (trace events and the query ring store them as bytes).
enum class Tier : uint8_t {
  Syntactic = 0,  ///< tier 0
  Interval = 1,   ///< tier 1
  AllocClass = 2, ///< assumption layer (between tiers 1 and 2)
  Z3 = 3,         ///< tier 2
  None = 4,       ///< fell through every tier (relation is Unknown)
};

const char *tierName(Tier T);

class Z3Backend; // hides <z3++.h> from every other translation unit

class RelationSolver {
public:
  struct Config {
    bool UseZ3 = true;
    /// Assume stack/global/heap allocation classes are mutually separate
    /// (recorded as proof obligations). Turning this off is the rigorous
    /// but mostly-useless mode discussed in §1.
    bool AllocClassAssumptions = true;
    /// Record every *computed* decision (query, a copy of the predicate,
    /// result, deciding tier) for differential replay. Off by default —
    /// predicate copies are cheap but not free.
    bool LogQueries = false;
    bool operator==(const Config &) const = default;
  };

  /// Combined entry cap for the relate()/mustEqual() memo maps. At the
  /// cap, entries whose version differs from the current query's are
  /// swept first; if the sweep frees nothing (single hot predicate) the
  /// maps are cleared.
  static constexpr size_t CacheCap = 1u << 16;
  /// Cap on the query log (entries past the cap are simply not recorded;
  /// the differential harness replays a bounded corpus).
  static constexpr size_t LogCap = 1u << 16;

  /// One decide() outcome: the relation plus where it came from.
  struct Decision {
    MemRel Rel = MemRel::Unknown;
    Tier DecidedBy = Tier::None;
  };

  explicit RelationSolver(expr::ExprContext &Ctx)
      : RelationSolver(Ctx, Config()) {}
  RelationSolver(expr::ExprContext &Ctx, Config Cfg);
  ~RelationSolver();

  /// The necessarily-relation between R0 and R1 under P, with provenance.
  /// This is the single entry point every layer of the portfolio sits
  /// behind; relate() is a convenience wrapper returning just the MemRel.
  Decision decide(const Region &R0, const Region &R1, const pred::Pred &P);

  MemRel relate(const Region &R0, const Region &R1, const pred::Pred &P) {
    return decide(R0, R1, P).Rel;
  }

  /// Replay a query through ONE tier in isolation (the differential
  /// harness). Bypasses the cache, the stats counters, the assumption log
  /// and — for Tier::Z3 — the admission filter and the empty-ranges skip,
  /// so a forced Z3 replay is the trusted oracle the cheap tiers are
  /// compared against. Tier::AllocClass applies the assumption pairs
  /// without recording obligations; Tier::None returns Unknown.
  Decision decideWithTierOnly(const Region &R0, const Region &R1,
                              const pred::Pred &P, Tier Only);

  /// Is E0 == E1 necessarily (used for alias checks on same-size regions)?
  bool mustEqual(const expr::Expr *E0, const expr::Expr *E1,
                 const pred::Pred &P);

  const std::vector<Assumption> &assumptions() const { return Assumptions; }
  void clearAssumptions() { Assumptions.clear(); }

  /// One recorded (computed) decision, for differential replay. The
  /// predicate is copied at query time — cheap (interned pointers), and
  /// the copy keeps its version stamp, so replays see the exact clause
  /// set. Expressions stay valid as long as the owning ExprContext lives
  /// (the LiftArena a FunctionResult keeps alive).
  struct LoggedQuery {
    const expr::Expr *A0 = nullptr, *A1 = nullptr;
    uint32_t S0 = 0, S1 = 0;
    pred::Pred P;
    MemRel Rel = MemRel::Unknown;
    Tier DecidedBy = Tier::None;
  };
  const std::vector<LoggedQuery> &queryLog() const { return Log; }

  /// The most recent relate() decisions that were actually *computed*
  /// (cache hits re-deliver a recorded decision and are not re-recorded),
  /// rendered newest-first: "[rax,8] vs [rsp0-0x10,8] -> separate
  /// (interval)". This is the relation-query chain stamped into
  /// diagnostic provenance (diag::Provenance::QueryChain). The ring
  /// stores PODs; rendering happens only here, on the cold path.
  std::vector<std::string> recentQueries(size_t Max = 4) const;

  /// The per-function stats sink every solver counter is written to (the
  /// SolverQueries, Z3Queries, SolverTier*, SolverSeconds and RelCache*
  /// fields of LiftStats). The per-tier counters count *computed*
  /// decisions only; cache hits re-deliver a decision without
  /// re-attributing it. Pass nullptr to detach: counters then go nowhere.
  /// Not synchronized — one solver, one lifting thread.
  void setLiftStats(LiftStats *Sink) { LS = Sink ? Sink : &Detached; }

private:
  /// The tier ladder.
  Decision decidePortfolio(const Region &R0, const Region &R1,
                           const pred::Pred &P);
  /// decidePortfolio plus bookkeeping: per-tier counters, decide-time
  /// accounting, the query ring, the query log, and the solver_call trace
  /// event.
  Decision decideRecorded(const Region &R0, const Region &R1,
                          const pred::Pred &P);

  /// Memoized linearization (bounded).
  const expr::LinearForm &linearizeMemo(const expr::Expr *E);
  /// Sorted leaf atoms (Vars and Derefs, Derefs opaque) of E (memoized).
  const std::vector<const expr::Expr *> &leavesOf(const expr::Expr *E);

  /// Tier-2 admission filter: true if the Z3 round trip is skipped. See
  /// the .cpp for the two rules and their justification.
  bool admitSkipsZ3(const Region &R0, const Region &R1,
                    const expr::LinearForm &L0, const expr::LinearForm &L1,
                    const pred::Pred &P);

  /// Evict stale-version entries (or clear) once the maps reach CacheCap.
  void boundCaches(uint64_t LiveVer);

  /// Exact query identity: interned address pointers + sizes + the
  /// predicate's version stamp. Pointer equality is structural equality
  /// within one ExprContext; hashValue() only drives bucketing.
  struct RelKey {
    const expr::Expr *A0, *A1;
    uint32_t S0, S1;
    uint64_t Ver;
    bool operator==(const RelKey &O) const = default;
  };
  struct RelKeyHash {
    size_t operator()(const RelKey &K) const;
  };
  struct EqKey {
    const expr::Expr *E0, *E1;
    uint64_t Ver;
    bool operator==(const EqKey &O) const = default;
  };
  struct EqKeyHash {
    size_t operator()(const EqKey &K) const;
  };
  /// Cached decision: relation + the tier that computed it (so cache hits
  /// keep their provenance).
  struct CachedRel {
    MemRel Rel;
    Tier DecidedBy;
  };

  /// One computed decide() decision, kept as PODs (no strings on the hot
  /// path; recentQueries() renders lazily). Layer = uint8_t(Tier).
  struct QueryRec {
    const expr::Expr *A0 = nullptr, *A1 = nullptr;
    uint32_t S0 = 0, S1 = 0;
    MemRel Res = MemRel::Unknown;
    uint8_t Layer = 0;
  };
  static constexpr size_t QueryRingSize = 8;

  /// Per-Pred-version summary consulted by the admission filter: the
  /// sorted leaf atoms of every range-clause LHS, plus whether any Eq
  /// clause is present. Memoized because one version answers many queries.
  struct RangeInfo {
    std::vector<const expr::Expr *> Leaves;
    bool HasEq = false;
  };
  const RangeInfo &rangeInfoOf(const pred::Pred &P);

  expr::ExprContext &Ctx;
  Config Cfg;
  /// Where counters land while no sink is attached; never read.
  LiftStats Detached;
  LiftStats *LS = &Detached;
  std::vector<Assumption> Assumptions;
  std::vector<LoggedQuery> Log;
  QueryRec Recent[QueryRingSize];
  uint64_t RecentCount = 0; ///< total recorded; ring index = count % size
  std::unique_ptr<Z3Backend> Z3;
  std::unordered_map<RelKey, CachedRel, RelKeyHash> RelCache;
  std::unordered_map<EqKey, bool, EqKeyHash> EqCache;
  /// Tier memos, all bounded by clearing at MemoCap entries. Keyed on
  /// interned pointers, so they never go stale within one arena.
  static constexpr size_t MemoCap = 1u << 13;
  std::unordered_map<const expr::Expr *, expr::LinearForm> LinMemo;
  std::unordered_map<const expr::Expr *, std::vector<const expr::Expr *>>
      LeafMemo;
  std::unordered_map<uint64_t, RangeInfo> RangeInfoMemo;
};

} // namespace hglift::smt

#endif // HGLIFT_SMT_RELATIONSOLVER_H
