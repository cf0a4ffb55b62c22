//===- Shard.h - Multi-process sharded lifting ----------------*- C++ -*-===//
//
// Corpus-level parallelism by process, not by thread — and since the
// work-stealing rework, *pull-based*: the parent owns one queue of work
// units and workers claim the next unit over a pipe protocol instead of
// receiving a fixed slice at fork time. A worker that finishes early
// simply pulls again, so a corpus with one dominant binary no longer
// leaves N-1 processes idle behind a straggler.
//
//   parent                           worker k (fork/exec of hglift with
//     planUnits(): longest-           `--shard-worker-fds G,R`)
//     estimated-first queue             |
//     |  <-- "REQ"  -------------------+   claim the next unit
//     |  --- "RUN <id> <bin>" -->      |   lift it, write its fragment
//     |  <-- "FIN <id> <exit> <s>" ----+   report outcome + seconds
//     |  <-- "REQ" ... "BYE" -->       |   drain until the queue is dry
//
// One unit per input binary. Claim order is longest-estimated-first by a
// static heuristic (executable bytes, function count), so a dominant
// binary starts early instead of last.
//
// The contract that makes all of this testable: the merged report is
// byte-identical to a serial run under any worker count and any steal
// order. That falls out of construction — the serial path (one shard)
// executes the very same unit code in-process, and fragment content
// depends only on (binary, options).
//
// Crash handling: a worker that dies on a signal (or exits without
// draining cleanly) has its claimed-but-unfinished unit returned to the
// queue and is re-spawned once; fragments are written tempfile-then-
// rename, so a retry never observes a torn file. A clean per-unit exit 1
// (the analysis rejected that binary) is a result, not a crash.
//
// Test hooks (no effect outside the harness):
//   HGLIFT_SHARD_TEST_CRASH=<k>           worker k's FIRST spawn kills
//                                         itself before claiming anything.
//   HGLIFT_SHARD_TEST_CRASH_MIDCLAIM=<k>  worker k's FIRST spawn kills
//                                         itself after claiming its first
//                                         unit and before executing it —
//                                         the mid-claim requeue path.
// Both are planted by the parent in that child's environment only;
// retries run clean. Exercised by tests/shard_test.cpp.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SHARD_SHARD_H
#define HGLIFT_SHARD_SHARD_H

#include "api/Hglift.h"

#include <cstddef>
#include <string>
#include <vector>

namespace hglift::shard {

/// Counters for one sharded run's scheduler: how the work units were
/// planned, claimed, and stolen, and what the cost model estimated.
/// Purely observational: none of these counters feed back into
/// scheduling decisions.
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

/// Everything a sharded run can be configured with. Whatever the CLI can
/// set here survives the trip through a worker's argv: the worker argv is
/// rendered from the flag table (driver/Flags.h) that parsed it.
struct ShardOptions {
  /// What every unit lifts with. Base.Cache.Dir is the coordination root
  /// (required): the shared artifact store and the fragment directory
  /// <Dir>/shard/.
  Options Base;
  /// Run the Step-2 checker per binary (fragment then carries the proof
  /// summary, exactly as `hglift check --report-json` would emit it).
  bool Check = false;
  /// Input ELF paths. Entry order is merge order, regardless of which
  /// worker lifts which binary.
  std::vector<std::string> Binaries;
  /// Worker process count. 1 runs the whole queue in-process (the serial
  /// reference the byte-identity gate compares against). 0 = `--shards
  /// auto`: probe hardware threads, cap by corpus size and available
  /// memory (resolveAutoShards).
  unsigned Shards = 1;
  /// Pull-based claim order (the default). False restores the static
  /// round-robin assignment as an ablation: each worker may only claim
  /// units the round-robin plan owns, in plan order. The protocol and the
  /// merged bytes are identical either way; only idle time differs.
  bool WorkStealing = true;
  /// Render a live progress/ETA line to stderr (claimed/completed units,
  /// per-worker state, steal count, ETA calibrated from observed seconds).
  bool Progress = false;
  /// Executable to spawn as the worker. Empty = /proc/self/exe, which is
  /// correct when the caller is hglift itself; tests point this at the
  /// built hglift binary.
  std::string WorkerExe;

  bool operator==(const ShardOptions &) const = default;
};

/// One claimable unit of the queue: lift (and optionally check) one
/// binary and write its fragment.
struct WorkUnit {
  /// Global index into ShardOptions::Binaries.
  size_t Bin = 0;
  /// The worker the static round-robin plan gives this unit to (binary i
  /// belongs to worker i % Shards) — the *reference* assignment: the
  /// --no-work-stealing ablation grants exactly these units, and a claim
  /// by any other worker counts as a steal.
  unsigned RROwner = 0;
  /// Cost estimate in pseudo-seconds from the static executable-bytes
  /// heuristic; 0 for an unreadable ELF.
  double Est = 0;
};

/// `--shards auto`: hardware threads, capped by the unit count and by
/// available memory (MemAvailable / 256 MiB per worker, when
/// /proc/meminfo is readable). Never less than 1.
unsigned resolveAutoShards(size_t NumUnits);

/// Build the unit queue, one unit per binary: read each ELF (unreadable
/// ones become cost-0 units that emit the synthetic "unreadable"
/// fragment) and estimate its cost. Sched gets the plan-time counters
/// (units, estimated seconds).
std::vector<WorkUnit> planUnits(const ShardOptions &Opt, unsigned Shards,
                                ShardSchedStats &Sched);

/// Fragment path for global binary index Idx under the coordination root.
std::string fragPath(const std::string &CacheDir, size_t Idx);

/// Execute one unit in this process — the code path both the serial
/// reference and every worker run. Writes the unit's fragment and returns
/// the per-binary exit code (0/1, or 3 when the fragment cannot be
/// written). SecondsOut (optional) receives the unit's wall time.
int execUnit(const ShardOptions &Opt, const WorkUnit &U,
             double *SecondsOut = nullptr);

/// Worker entry for `--shard-worker-fds`: claim units over the pipe
/// protocol (GrantFd: parent-to-worker RUN/BYE lines; RequestFd:
/// worker-to-parent REQ/FIN lines) until BYE. Returns 0 after a clean
/// drain; per-unit outcomes travel in FIN messages, not the exit code.
int runWorkerLoop(const ShardOptions &Opt, int GrantFd, int RequestFd);

struct ShardResult {
  /// Every fragment produced and merged (individual binaries may still
  /// have been *rejected* by the analysis — see Exit).
  bool Ok = false;
  /// Human-readable failure description when !Ok.
  std::string Error;
  /// Aggregate exit code per driver/ExitCode.h: 0 = every binary lifted
  /// (and proved, under Check), 1 = at least one rejected, 3 = artifact
  /// IO failure.
  int Exit = 0;
  /// Worker count the run actually used (after `--shards auto` probing
  /// and capping by the unit count).
  unsigned ShardsResolved = 1;
  unsigned WorkersSpawned = 0;
  /// Workers that died on a signal or exited without draining cleanly.
  unsigned WorkersCrashed = 0;
  unsigned WorkersRetried = 0;
  /// Scheduler counters (units, claims, steals, requeues, cost totals).
  ShardSchedStats Sched;
  /// The merged report: {"shard_schema_version": 1, "binaries": [f0, f1,
  /// ...]} with each fragment spliced in verbatim, entry order.
  std::string MergedReport;
};

/// Orchestrate the full run: plan the queue, spawn workers (or drain the
/// queue in-process), feed claims, requeue crashed units, retry crashed
/// workers once, merge fragments.
ShardResult runShards(const ShardOptions &Opt);

/// The `hglift shard --stats-json` payload: resolved worker count, unit
/// and claim counters, steal/requeue counts, and cost-model totals.
/// Schema documented in docs/CLI.md.
void writeShardStatsJson(std::ostream &OS, const ShardOptions &Opt,
                         const ShardResult &R);

} // namespace hglift::shard

#endif // HGLIFT_SHARD_SHARD_H
