//===- LiftStats.h - Observability counters for the lifting engine -*- C++ -*-//
//
// One LiftStats records what Algorithm 1 did for one function: how many
// vertices it explored, how often it joined and widened, how many symbolic
// steps and memory-model forks the semantics produced, and how many
// necessarily-relation queries reached the solver (and, of those, Z3).
// The struct lives in support/ so every layer — Lifter, SymExec,
// RelationSolver — can hold a sink pointer without dependency cycles.
//
// Aggregation across functions is a plain merge(); the parallel lifting
// engine merges per-function stats under its result mutex, so the binary
// totals are exact regardless of thread count.
//
// The fields are declared once, in HGLIFT_LIFT_STATS below; the struct,
// merge(), the --stats-json fields (driver/Report.cpp) and the artifact
// store's counter block (store/Serialize.cpp) are all expanded from that
// one list, so a new counter cannot reach one of them and miss another.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SUPPORT_LIFTSTATS_H
#define HGLIFT_SUPPORT_LIFTSTATS_H

#include <cstdint>

namespace hglift {

/// Every LiftStats field, in --stats-json order, as X(Type, Member,
/// "json_name"). The uint64_t fields are counters: they sum under merge()
/// and store objects carry them, so a store hit reports what its cold lift
/// did. The double fields are wall-clock seconds: they sum under merge()
/// too, but store objects are content-addressed and leave them out.
#define HGLIFT_LIFT_STATS(X)                                                   \
  /* Vertices of the Hoare Graph explored (fetch+decode+step ran there). */  \
  X(uint64_t, Vertices, "vertices")                                            \
  /* Joins performed at existing vertices (Algorithm 1 lines 5-7). */        \
  X(uint64_t, Joins, "joins")                                                  \
  /* Joins that widened (JoinCount reached hg::WidenAfterJoins). */          \
  X(uint64_t, Widenings, "widenings")                                          \
  /* Symbolic instruction executions (SymExec::step calls). */               \
  X(uint64_t, Steps, "steps")                                                  \
  /* Extra successors from nondeterministic forks (memory-model insertion    \
     outcomes, conditional branches, jump-table fan-out): successors beyond  \
     the first, summed over steps. */                                        \
  X(uint64_t, Forks, "forks")                                                  \
  /* Necessarily-relation queries answered by the RelationSolver. */         \
  X(uint64_t, SolverQueries, "solver_queries")                                 \
  /* The subset of SolverQueries that reached the Z3 backend. */             \
  X(uint64_t, Z3Queries, "z3_queries")                                         \
  /* Computed (uncached) relation queries decided by tier 0: syntactic       \
     identity or a constant linear difference. */                            \
  X(uint64_t, SolverTier0Hits, "solver_tier0_hits")                            \
  /* Decided by tier 1: interval/constant reasoning over range clauses. */   \
  X(uint64_t, SolverTier1Hits, "solver_tier1_hits")                            \
  /* Decided by the allocation-class assumption layer (recorded as proof     \
     obligations; sits between tier 1 and tier 2). */                        \
  X(uint64_t, SolverClassHits, "solver_class_hits")                            \
  /* Decided by tier 2 (Z3). */                                              \
  X(uint64_t, SolverTier2Hits, "solver_tier2_hits")                            \
  /* Tier-2 round trips the admission filter skipped because no definite     \
     relation was derivable (the query degrades to Unknown, soundly). */     \
  X(uint64_t, SolverTier2Skipped, "solver_tier2_skipped")                      \
  /* Queries every tier fell through (answered Unknown). */                  \
  X(uint64_t, SolverFallthroughs, "solver_fallthroughs")                       \
  /* Wall-clock seconds spent computing uncached relation decisions (the     \
     portfolio's "query time"; cache hits are excluded). */                  \
  X(double, SolverSeconds, "solver_seconds")                                   \
  /* Relation-solver queries answered from the version-keyed memo. */        \
  X(uint64_t, RelCacheHits, "rel_cache_hits")                                  \
  /* Relation-solver queries that missed the memo (answered uncached). */    \
  X(uint64_t, RelCacheMisses, "rel_cache_misses")                              \
  /* Stale-version memo entries dropped by the sweep at the cache cap (their \
     Pred was mutated, so the keys can never be hit again). */               \
  X(uint64_t, RelCacheInvalidated, "rel_cache_invalidated")                    \
  /* Live-version memo entries cleared because the sweep freed nothing at    \
     the cap (single hot predicate); these were still hittable. */           \
  X(uint64_t, RelCacheEvicted, "rel_cache_evicted")                            \
  /* Pred/MemModel leq probes answered from the lifter's digest memo. */     \
  X(uint64_t, LeqHits, "leq_hits")                                             \
  /* leq probes that fell through to the full comparison. */                 \
  X(uint64_t, LeqMisses, "leq_misses")                                         \
  /* Value-set-analysis resolution attempts on indirect jump/call targets    \
     (docs/VSA.md): one per non-constant rip candidate probed. */            \
  X(uint64_t, VsaQueries, "vsa_queries")                                       \
  /* VSA queries that resolved to a concrete target set. */                  \
  X(uint64_t, VsaResolved, "vsa_resolved")                                     \
  /* Total concrete targets across resolved VSA queries (column A's          \
     resolved-indirection fan-out). */                                       \
  X(uint64_t, VsaTargets, "vsa_targets")                                       \
  /* Function re-explorations triggered by a table-shaped-but-unbounded      \
     index (the widening-protection retry loop in Lifter.cpp). */            \
  X(uint64_t, VsaRestarts, "vsa_restarts")                                     \
  /* Wall-clock seconds (per function: the lift; aggregated: sum of          \
     per-function times, which exceeds elapsed wall time when parallel). */  \
  X(double, Seconds, "seconds")

struct LiftStats {
#define HGLIFT_STATS_FIELD(Type, Member, Name) Type Member = 0;
  HGLIFT_LIFT_STATS(HGLIFT_STATS_FIELD)
#undef HGLIFT_STATS_FIELD

  void merge(const LiftStats &O) {
#define HGLIFT_STATS_MERGE(Type, Member, Name) Member += O.Member;
    HGLIFT_LIFT_STATS(HGLIFT_STATS_MERGE)
#undef HGLIFT_STATS_MERGE
  }
};

} // namespace hglift

#endif // HGLIFT_SUPPORT_LIFTSTATS_H
