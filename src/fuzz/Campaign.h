//===- Campaign.h - Seeded soundness fuzzing campaigns ----------*- C++ -*-===//
//
// The `hglift fuzz` engine. A campaign is a deterministic function of its
// seed: every run derives a generator configuration, synthesizes a random
// binary (src/corpus), lifts it (Step 1), re-checks every edge (Step 2),
// and cross-validates with the concrete-execution oracle. With mutation
// testing enabled it then probes every registered semantics mutant until
// the pipeline kills it, attributing the kill to a layer; killed mutants
// found by --reduce-mutant are shrunk by the delta-debugging reducer to a
// replayable on-disk reproducer. The campaign report (--fuzz-json) is
// versioned (diag::FuzzSchemaVersion) and byte-deterministic: wall-clock
// times never appear in it.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_FUZZ_CAMPAIGN_H
#define HGLIFT_FUZZ_CAMPAIGN_H

#include "corpus/Programs.h"
#include "fuzz/Mutants.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace hglift::fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;       ///< --seed: campaign master seed
  unsigned Runs = 25;      ///< --runs: unmutated fuzzing runs
  unsigned MaxInsns = 48;  ///< --max-insns: per-function size cap
  bool MutateSemantics = false;      ///< --mutate-semantics
  std::vector<std::string> MutantFilter; ///< --mutants a,b (empty: all)
  std::string JsonPath;    ///< --fuzz-json FILE
  std::string ReproDir = "."; ///< --repro-dir: where reproducers land
  std::string ReduceMutant;   ///< --reduce-mutant NAME: reducer demo
  double BudgetSeconds = 0;   ///< --budget-seconds: wall cap on the run
                              ///< loop (0 = exactly Runs runs)
  unsigned OracleRuns = 3;    ///< --oracle-runs: concrete walks/function
  unsigned MutantProbes = 16; ///< max probe binaries per mutant

  bool operator==(const FuzzOptions &) const = default;
};

/// One fuzzing run (one synthesized binary through the full pipeline).
struct RunRecord {
  unsigned Index = 0;
  uint64_t RunSeed = 0;    ///< drawn from the campaign master Rng
  uint64_t GenSeed = 0;    ///< corpus generator seed derived from RunSeed
  uint64_t OracleSeed = 0; ///< oracle seed derived from RunSeed
  std::string Name;
  bool Library = false;
  std::string Outcome; ///< binary lift outcome name
  size_t Functions = 0, LiftedFns = 0, Instructions = 0;
  size_t Theorems = 0, Proven = 0;
  size_t OracleWalks = 0, OracleStates = 0;
  std::vector<std::string> CheckFailures;
  std::vector<std::string> OracleViolations;
  /// Provenance of the first failure (either layer), 0/empty when clean.
  uint64_t FirstFailFn = 0, FirstFailAddr = 0;

  bool ok() const {
    return CheckFailures.empty() && OracleViolations.empty() &&
           Theorems == Proven;
  }
};

/// Mutation-testing verdict for one registered mutant.
struct MutantOutcome {
  std::string Name, Description, Scope, ExpectedKiller;
  bool Killed = false;
  std::string KilledBy; ///< "step2" or "oracle", "" when it survived
  uint64_t KillSeed = 0;
  unsigned Probes = 0;
  std::string Detail; ///< first failing theorem / violation message
  uint64_t KillFn = 0, KillAddr = 0;
  /// Probe index of the killing subject — with KillSeed, enough to
  /// regenerate the exact killing binary (regenerateSubject). In-memory
  /// only: NOT serialized by writeFuzzJson (the fuzz schema is versioned).
  unsigned KillIndex = 0;
};

/// One delta-debugging reduction (reducer demo or auto-reduce).
struct ReductionRecord {
  std::string Mutant; ///< "" for an unmutated (real) soundness failure
  uint64_t Seed = 0;  ///< the killing run seed the reducer replayed
  size_t Steps = 0;
  size_t FunctionsBefore = 0, InstructionsBefore = 0;
  size_t FunctionsAfter = 0, InstructionsAfter = 0;
  std::string Layer; ///< layer that kills the *reduced* binary
  std::string ReproElf, ReproJson;
  bool Replayed = false; ///< the written reproducer replays the failure
};

struct CampaignResult {
  std::vector<RunRecord> Runs;
  std::vector<MutantOutcome> Mutants;
  std::vector<ReductionRecord> Reductions;
  bool BudgetStopped = false;
  std::string Error; ///< usage-level error (unknown mutant name, I/O)

  size_t checkFailures() const;
  size_t oracleViolations() const;
  size_t mutantsKilled() const;
  /// Campaign verdict: no soundness violations, every probed mutant
  /// killed, every reduction replayable, no usage errors.
  bool success() const;
};

/// The generated subject of one run or probe: the synthesized binary plus
/// the seeds that made it. A (index, run-seed, options) triple always
/// regenerates the same subject; the run loop, the mutant probes, the
/// reducer, and the witness layer's mutation check all rely on this.
struct Subject {
  std::optional<corpus::BuiltBinary> BB;
  bool Library = false;
  uint64_t GenSeed = 0;
  uint64_t OracleSeed = 0;
  std::string Name;
};

/// Regenerate the subject of probe/run (Index, RunSeed) under Opts.
Subject regenerateSubject(unsigned Index, uint64_t RunSeed,
                          const FuzzOptions &Opts);

/// Run a campaign. Progress lines go to Log; the machine-readable result
/// is the return value (render with writeFuzzJson). Serial by design: the
/// mutation hook is process-global.
CampaignResult runCampaign(const FuzzOptions &Opts, std::ostream &Log);

/// Render the versioned, byte-deterministic --fuzz-json report.
void writeFuzzJson(std::ostream &OS, const FuzzOptions &Opts,
                   const CampaignResult &R);

/// Replay a reproducer sidecar written by the reducer: re-run the
/// recorded pipeline (mutant, scope, oracle seed) on the reduced ELF.
/// Returns 0 when the failure reproduces, 1 when it does not, 2 on
/// malformed input.
int replayReproducer(const std::string &JsonPath, std::ostream &Log);

} // namespace hglift::fuzz

#endif // HGLIFT_FUZZ_CAMPAIGN_H
