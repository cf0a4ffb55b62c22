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
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SUPPORT_LIFTSTATS_H
#define HGLIFT_SUPPORT_LIFTSTATS_H

#include <cstdint>

namespace hglift {

struct LiftStats {
  /// Vertices of the Hoare Graph explored (fetch+decode+step ran there).
  uint64_t Vertices = 0;
  /// Joins performed at existing vertices (Algorithm 1 lines 5-7).
  uint64_t Joins = 0;
  /// Joins that widened (JoinCount reached hg::WidenAfterJoins).
  uint64_t Widenings = 0;
  /// Symbolic instruction executions (SymExec::step calls).
  uint64_t Steps = 0;
  /// Extra successors from nondeterministic forks (memory-model insertion
  /// outcomes, conditional branches, jump-table fan-out): successors beyond
  /// the first, summed over steps.
  uint64_t Forks = 0;
  /// Necessarily-relation queries answered by the RelationSolver.
  uint64_t SolverQueries = 0;
  /// The subset of SolverQueries that reached the Z3 backend.
  uint64_t Z3Queries = 0;
  /// Computed (uncached) relation queries decided by tier 0: syntactic
  /// identity or a constant linear difference.
  uint64_t SolverTier0Hits = 0;
  /// Decided by tier 1: interval/constant reasoning over range clauses.
  uint64_t SolverTier1Hits = 0;
  /// Decided by the allocation-class assumption layer (recorded as proof
  /// obligations; sits between tier 1 and tier 2).
  uint64_t SolverClassHits = 0;
  /// Decided by tier 2 (Z3).
  uint64_t SolverTier2Hits = 0;
  /// Tier-2 round trips the admission filter skipped because no definite
  /// relation was derivable (the query degrades to Unknown, soundly).
  uint64_t SolverTier2Skipped = 0;
  /// Queries every tier fell through (answered Unknown).
  uint64_t SolverFallthroughs = 0;
  /// Wall-clock seconds spent computing uncached relation decisions (the
  /// portfolio's "query time"; cache hits are excluded).
  double SolverSeconds = 0;
  /// Relation-solver queries answered from the version-keyed memo.
  uint64_t RelCacheHits = 0;
  /// Relation-solver queries that missed the memo (answered uncached).
  uint64_t RelCacheMisses = 0;
  /// Stale-version memo entries dropped by the sweep at the cache cap
  /// (their Pred was mutated, so the keys can never be hit again).
  uint64_t RelCacheInvalidated = 0;
  /// Live-version memo entries cleared because the sweep freed nothing at
  /// the cap (single hot predicate); these were still hittable.
  uint64_t RelCacheEvicted = 0;
  /// Pred/MemModel leq probes answered from the lifter's digest memo.
  uint64_t LeqHits = 0;
  /// leq probes that fell through to the full comparison.
  uint64_t LeqMisses = 0;
  /// Value-set-analysis resolution attempts on indirect jump/call targets
  /// (docs/VSA.md): one per non-constant rip candidate probed.
  uint64_t VsaQueries = 0;
  /// VSA queries that resolved to a concrete target set.
  uint64_t VsaResolved = 0;
  /// Total concrete targets across resolved VSA queries (column A's
  /// resolved-indirection fan-out).
  uint64_t VsaTargets = 0;
  /// Function re-explorations triggered by a table-shaped-but-unbounded
  /// index (the widening-protection retry loop in Lifter.cpp).
  uint64_t VsaRestarts = 0;
  /// Wall-clock seconds (per function: the lift; aggregated: sum of
  /// per-function times, which exceeds elapsed wall time when parallel).
  double Seconds = 0;

  void merge(const LiftStats &O) {
    Vertices += O.Vertices;
    Joins += O.Joins;
    Widenings += O.Widenings;
    Steps += O.Steps;
    Forks += O.Forks;
    SolverQueries += O.SolverQueries;
    Z3Queries += O.Z3Queries;
    SolverTier0Hits += O.SolverTier0Hits;
    SolverTier1Hits += O.SolverTier1Hits;
    SolverClassHits += O.SolverClassHits;
    SolverTier2Hits += O.SolverTier2Hits;
    SolverTier2Skipped += O.SolverTier2Skipped;
    SolverFallthroughs += O.SolverFallthroughs;
    SolverSeconds += O.SolverSeconds;
    RelCacheHits += O.RelCacheHits;
    RelCacheMisses += O.RelCacheMisses;
    RelCacheInvalidated += O.RelCacheInvalidated;
    RelCacheEvicted += O.RelCacheEvicted;
    LeqHits += O.LeqHits;
    LeqMisses += O.LeqMisses;
    VsaQueries += O.VsaQueries;
    VsaResolved += O.VsaResolved;
    VsaTargets += O.VsaTargets;
    VsaRestarts += O.VsaRestarts;
    Seconds += O.Seconds;
  }
};

/// Counters for one sharded run's scheduler (shard/Shard.h): how the work
/// units were planned, claimed, and stolen, and what the cost model
/// estimated. Lives here for the same reason LiftStats does — the shard
/// runner, the driver's --stats-json writer, and the benches all read it
/// without depending on each other. Purely observational: none of these
/// counters feed back into scheduling decisions.
struct ShardSchedStats {
  /// Work units planned (one per input binary).
  uint64_t UnitsTotal = 0;
  /// Units granted to workers over the claim protocol.
  uint64_t Claims = 0;
  /// Claims whose unit the static round-robin plan would have assigned to
  /// a different worker — the work the pull scheduler moved.
  uint64_t Steals = 0;
  /// Claimed-but-unfinished units returned to the queue by a worker crash
  /// or a unit-level IO failure, then granted again.
  uint64_t Requeues = 0;
  /// Sum of per-unit cost estimates at plan time (heuristic
  /// pseudo-seconds).
  double EstimatedSeconds = 0;
  /// Sum of per-unit observed wall seconds reported by workers.
  double ObservedSeconds = 0;
};

} // namespace hglift

#endif // HGLIFT_SUPPORT_LIFTSTATS_H
