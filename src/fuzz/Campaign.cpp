//===- Campaign.cpp - Seeded soundness fuzzing campaigns ------------------===//

#include "fuzz/Campaign.h"

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "diag/Json.h"
#include "fuzz/Sidecar.h"
#include "elf/ElfReader.h"
#include "export/HoareChecker.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace hglift::fuzz {

namespace {

constexpr uint64_t Golden = 0x9e3779b97f4a7c15ull;

/// FNV-1a, for deriving per-mutant probe seed streams from names (stable
/// under registry reordering).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

const char *scopeName(MutantScope S) {
  return S == MutantScope::LiftOnly ? "lift-only" : "both";
}

Subject genSubject(unsigned Index, uint64_t RunSeed,
                   const FuzzOptions &Opts) {
  Subject S;
  Rng G(RunSeed);
  corpus::GenOptions GO;
  GO.Seed = S.GenSeed = G.next();
  GO.NumFuncs = 2 + static_cast<unsigned>(G.below(3));
  unsigned MaxI = std::max(16u, Opts.MaxInsns);
  GO.TargetInstrs = 12 + static_cast<unsigned>(G.below(MaxI - 12 + 1));
  GO.JumpTablePct = 30;
  GO.ExternalPct = 40;
  GO.CallbackPct = 10;
  GO.UnresJumpPct = 10;
  GO.Name = "fuzz_" + std::to_string(Index);
  S.Library = G.chance(1, 2);
  S.OracleSeed = G.next();
  S.Name = GO.Name;
  S.BB = S.Library ? corpus::randomLibrary(GO) : corpus::randomBinary(GO);
  return S;
}

/// One pass of the full pipeline: Step 1, Step 2, concrete oracle. The
/// mutant (when given) is installed for Step 1 and — for Both-scope
/// mutants, which model a bug in the shared semantics — Step 2; the
/// oracle always judges with clean semantics.
struct PipelineOut {
  std::string Outcome;
  size_t Functions = 0, LiftedFns = 0, Instructions = 0;
  size_t Theorems = 0, Proven = 0;
  std::vector<std::string> CheckFailures;
  OracleResult Oracle;
  uint64_t FirstFailFn = 0, FirstFailAddr = 0;
};

PipelineOut runPipeline(const elf::BinaryImage &Img, bool Library,
                        const Mutant *M, uint64_t OracleSeed,
                        unsigned OracleRuns) {
  PipelineOut P;
  Options SO;
  SO.Library = Library;
  Session S(Img, SO);

  std::optional<MutantInstall> Inst;
  if (M)
    Inst.emplace(*M);
  const hg::BinaryResult &R = S.lift();
  if (M && M->Scope == MutantScope::LiftOnly)
    Inst.reset(); // Step 2 re-checks with the clean semantics

  const exporter::CheckResult &C = S.check();
  Inst.reset(); // the oracle is always the clean-semantics judge

  P.Outcome = hg::liftOutcomeName(R.Outcome);
  P.Functions = R.Functions.size();
  for (const hg::FunctionResult &F : R.Functions)
    if (F.Outcome == hg::LiftOutcome::Lifted) {
      ++P.LiftedFns;
      P.Instructions += F.numInstructions();
    }
  P.Theorems = C.Theorems;
  P.Proven = C.Proven;
  P.CheckFailures = C.Failures;
  if (!C.Diags.empty()) {
    P.FirstFailFn = C.Diags.front().Prov.FunctionEntry;
    P.FirstFailAddr = C.Diags.front().Prov.Addr;
  }

  P.Oracle = runOracle(Img, R, OracleSeed, static_cast<int>(OracleRuns));
  if (P.CheckFailures.empty() && !P.Oracle.Violations.empty()) {
    P.FirstFailFn = P.Oracle.Violations.front().Function;
    P.FirstFailAddr = P.Oracle.Violations.front().Addr;
  }
  return P;
}

RunRecord fuzzOne(unsigned Index, uint64_t RunSeed, const FuzzOptions &Opts,
                  const Mutant *M) {
  RunRecord R;
  R.Index = Index;
  R.RunSeed = RunSeed;
  Subject S = genSubject(Index, RunSeed, Opts);
  R.GenSeed = S.GenSeed;
  R.OracleSeed = S.OracleSeed;
  R.Name = S.Name;
  R.Library = S.Library;
  if (!S.BB) {
    R.Outcome = "build-failed";
    return R;
  }
  PipelineOut P =
      runPipeline(S.BB->Img, S.Library, M, S.OracleSeed, Opts.OracleRuns);
  R.Outcome = P.Outcome;
  R.Functions = P.Functions;
  R.LiftedFns = P.LiftedFns;
  R.Instructions = P.Instructions;
  R.Theorems = P.Theorems;
  R.Proven = P.Proven;
  R.CheckFailures = P.CheckFailures;
  for (const OracleViolation &V : P.Oracle.Violations)
    R.OracleViolations.push_back("fn " + hexStr(V.Function) + ": " +
                                 V.Message);
  R.OracleWalks = P.Oracle.Runs;
  R.OracleStates = P.Oracle.States;
  R.FirstFailFn = P.FirstFailFn;
  R.FirstFailAddr = P.FirstFailAddr;
  return R;
}

MutantOutcome probeMutant(const Mutant &M, const FuzzOptions &Opts,
                          std::ostream &Log, unsigned *KillIndex) {
  MutantOutcome MO;
  MO.Name = M.Name;
  MO.Description = M.Description;
  MO.Scope = scopeName(M.Scope);
  MO.ExpectedKiller = M.expectedKiller();
  Rng PR(Opts.Seed ^ (fnv1a(M.Name) * Golden));
  for (unsigned P = 0; P < Opts.MutantProbes && !MO.Killed; ++P) {
    uint64_t ProbeSeed = PR.next();
    RunRecord R = fuzzOne(P, ProbeSeed, Opts, &M);
    ++MO.Probes;
    if (!R.CheckFailures.empty()) {
      MO.Killed = true;
      MO.KilledBy = "step2";
      MO.Detail = R.CheckFailures.front();
    } else if (!R.OracleViolations.empty()) {
      MO.Killed = true;
      MO.KilledBy = "oracle";
      MO.Detail = R.OracleViolations.front();
    }
    if (MO.Killed) {
      MO.KillSeed = ProbeSeed;
      MO.KillFn = R.FirstFailFn;
      MO.KillAddr = R.FirstFailAddr;
      MO.KillIndex = P;
      if (KillIndex)
        *KillIndex = P;
    }
  }
  Log << "mutant " << MO.Name << " [" << MO.Scope << "]: "
      << (MO.Killed ? "killed by " + MO.KilledBy + " after " +
                          std::to_string(MO.Probes) + " probe(s)"
                    : "SURVIVED " + std::to_string(MO.Probes) + " probe(s)")
      << "\n";
  return MO;
}

std::string basenameOf(const std::string &Path) {
  size_t Pos = Path.find_last_of('/');
  return Pos == std::string::npos ? Path : Path.substr(Pos + 1);
}

/// Reducer demo: find a killing probe for M, shrink the subject binary
/// with the delta debugger, write the reproducer pair, and replay it.
bool reduceAndWrite(const Mutant &M, const FuzzOptions &Opts,
                    std::ostream &Log, ReductionRecord &Rec) {
  Rec.Mutant = M.Name;
  unsigned KillIndex = 0;
  MutantOutcome MO = probeMutant(M, Opts, Log, &KillIndex);
  if (!MO.Killed) {
    Log << "reduce: mutant " << M.Name << " was not killed; nothing to shrink\n";
    return false;
  }
  Rec.Seed = MO.KillSeed;
  Subject S = genSubject(KillIndex, MO.KillSeed, Opts);
  if (!S.BB)
    return false;

  // Clean lift of the same bytes supplies the instruction atoms.
  Options CleanOpt;
  CleanOpt.Library = S.Library;
  Session CleanS(S.BB->Img, CleanOpt);
  const hg::BinaryResult &Clean = CleanS.lift();

  auto fails = [&](const std::vector<uint8_t> &Bytes) {
    auto Img = elf::readElf(Bytes, "reduced");
    if (!Img)
      return false;
    PipelineOut P =
        runPipeline(*Img, S.Library, &M, S.OracleSeed, Opts.OracleRuns);
    return !P.CheckFailures.empty() || !P.Oracle.Violations.empty();
  };

  ReduceResult RR =
      reduceBinary(S.BB->ElfBytes, reductionAtoms(Clean), fails);
  Rec.Steps = RR.PredicateCalls;
  size_t OrigInstr = 0, OrigFns = 0;
  for (const hg::FunctionResult &F : Clean.Functions)
    if (F.Outcome == hg::LiftOutcome::Lifted) {
      ++OrigFns;
      OrigInstr += F.numInstructions();
    }
  Rec.FunctionsBefore = OrigFns;
  Rec.InstructionsBefore = OrigInstr;
  Rec.FunctionsAfter = RR.FunctionsLeft;
  Rec.InstructionsAfter = RR.InstructionsLeft;
  if (!RR.Reproduced) {
    Log << "reduce: killing seed did not reproduce deterministically\n";
    return false;
  }

  // Which layer kills the *reduced* binary (recorded for replay).
  {
    auto Img = elf::readElf(RR.Bytes, "reduced");
    if (!Img)
      return false;
    PipelineOut P =
        runPipeline(*Img, S.Library, &M, S.OracleSeed, Opts.OracleRuns);
    Rec.Layer = !P.CheckFailures.empty()          ? "step2"
                : !P.Oracle.Violations.empty() ? "oracle"
                                               : "";
    if (Rec.Layer.empty())
      return false;
  }

  std::string Stem = sidecarStem(Opts.ReproDir, M.Name);
  Rec.ReproElf = sidecarElfPath(Stem);
  Rec.ReproJson = sidecarJsonPath(Stem);
  if (!writeSidecarElf(Stem, RR.Bytes))
    return false;
  {
    std::ostringstream J;
    J << "{\n";
    J << "  \"fuzz_schema_version\": " << diag::FuzzSchemaVersion << ",\n";
    J << "  \"kind\": \"hglift-fuzz-reproducer\",\n";
    J << "  \"elf\": \"" << diag::jsonEscape(basenameOf(Rec.ReproElf))
      << "\",\n";
    J << "  \"mutant\": \"" << diag::jsonEscape(M.Name) << "\",\n";
    J << "  \"library\": " << (S.Library ? "true" : "false") << ",\n";
    J << "  \"oracle_seed\": \"" << hexStr(S.OracleSeed) << "\",\n";
    J << "  \"oracle_runs\": " << Opts.OracleRuns << ",\n";
    J << "  \"expect\": \"" << Rec.Layer << "\",\n";
    J << "  \"run_seed\": \"" << hexStr(MO.KillSeed) << "\",\n";
    J << "  \"gen_seed\": \"" << hexStr(S.GenSeed) << "\",\n";
    J << "  \"instructions\": " << Rec.InstructionsAfter << ",\n";
    J << "  \"functions\": " << Rec.FunctionsAfter << "\n";
    J << "}\n";
    if (!writeSidecarJson(Stem, J.str()))
      return false;
  }
  Log << "reduce: " << M.Name << " shrank " << Rec.InstructionsBefore
      << " -> " << Rec.InstructionsAfter << " instructions ("
      << Rec.FunctionsBefore << " -> " << Rec.FunctionsAfter
      << " functions) in " << Rec.Steps << " pipeline runs; wrote "
      << Rec.ReproJson << "\n";

  // Close the loop: the artifact we just wrote must replay.
  std::ostringstream Quiet;
  Rec.Replayed = replayReproducer(Rec.ReproJson, Quiet) == 0;
  if (!Rec.Replayed)
    Log << "reduce: WARNING: written reproducer did not replay\n";
  return true;
}

} // namespace

Subject regenerateSubject(unsigned Index, uint64_t RunSeed,
                          const FuzzOptions &Opts) {
  return genSubject(Index, RunSeed, Opts);
}

size_t CampaignResult::checkFailures() const {
  size_t N = 0;
  for (const RunRecord &R : Runs)
    N += R.CheckFailures.size();
  return N;
}

size_t CampaignResult::oracleViolations() const {
  size_t N = 0;
  for (const RunRecord &R : Runs)
    N += R.OracleViolations.size();
  return N;
}

size_t CampaignResult::mutantsKilled() const {
  size_t N = 0;
  for (const MutantOutcome &M : Mutants)
    N += M.Killed ? 1 : 0;
  return N;
}

bool CampaignResult::success() const {
  if (!Error.empty())
    return false;
  for (const RunRecord &R : Runs)
    if (!R.ok())
      return false;
  for (const MutantOutcome &M : Mutants)
    if (!M.Killed)
      return false;
  for (const ReductionRecord &R : Reductions)
    if (!R.Replayed)
      return false;
  return true;
}

CampaignResult runCampaign(const FuzzOptions &Opts, std::ostream &Log) {
  CampaignResult Res;

  // Resolve the mutant set up front so typos fail fast.
  std::vector<const Mutant *> Mutants;
  if (Opts.MutateSemantics || !Opts.MutantFilter.empty()) {
    if (Opts.MutantFilter.empty()) {
      for (const Mutant &M : mutantRegistry())
        Mutants.push_back(&M);
    } else {
      for (const std::string &Name : Opts.MutantFilter) {
        const Mutant *M = findMutant(Name);
        if (!M) {
          Res.Error = "unknown mutant: " + Name;
          return Res;
        }
        Mutants.push_back(M);
      }
    }
  }
  if (!Opts.ReduceMutant.empty() && !findMutant(Opts.ReduceMutant)) {
    Res.Error = "unknown mutant: " + Opts.ReduceMutant;
    return Res;
  }

  auto Start = std::chrono::steady_clock::now();
  auto expired = [&] {
    if (Opts.BudgetSeconds <= 0)
      return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
               .count() > Opts.BudgetSeconds;
  };

  Log << "fuzz campaign: seed " << hexStr(Opts.Seed) << ", " << Opts.Runs
      << " runs, " << Mutants.size() << " mutants\n";

  Rng Master(Opts.Seed);
  for (unsigned I = 0; I < Opts.Runs; ++I) {
    uint64_t RunSeed = Master.next();
    if (expired()) {
      Res.BudgetStopped = true;
      break;
    }
    RunRecord R = fuzzOne(I, RunSeed, Opts, nullptr);
    Log << "run " << I << " [" << hexStr(RunSeed) << "] " << R.Name
        << (R.Library ? " (library)" : "") << ": " << R.Outcome << ", "
        << R.LiftedFns << "/" << R.Functions << " fns, " << R.Proven << "/"
        << R.Theorems << " theorems, " << R.OracleStates
        << " oracle states";
    if (!R.ok())
      Log << "  ** FAILURE **";
    Log << "\n";
    Res.Runs.push_back(std::move(R));
  }

  // An unmutated failure is a real soundness bug: shrink it on the spot.
  for (const RunRecord &R : Res.Runs) {
    if (R.ok())
      continue;
    Log << "soundness failure in run " << R.Index << " (seed "
        << hexStr(R.RunSeed) << "): reducing\n";
    ReductionRecord Rec;
    Rec.Mutant = "";
    Rec.Seed = R.RunSeed;
    Subject S = genSubject(R.Index, R.RunSeed, Opts);
    if (S.BB) {
      Options CleanOpt;
      CleanOpt.Library = S.Library;
      Session CleanS(S.BB->Img, CleanOpt);
      const hg::BinaryResult &Clean = CleanS.lift();
      auto fails = [&](const std::vector<uint8_t> &Bytes) {
        auto Img = elf::readElf(Bytes, "reduced");
        if (!Img)
          return false;
        PipelineOut P = runPipeline(*Img, S.Library, nullptr, S.OracleSeed,
                                    Opts.OracleRuns);
        return !P.CheckFailures.empty() || !P.Oracle.Violations.empty();
      };
      ReduceResult RR =
          reduceBinary(S.BB->ElfBytes, reductionAtoms(Clean), fails);
      Rec.Steps = RR.PredicateCalls;
      Rec.FunctionsAfter = RR.FunctionsLeft;
      Rec.InstructionsAfter = RR.InstructionsLeft;
      std::string Stem =
          sidecarStem(Opts.ReproDir, "run" + std::to_string(R.Index));
      Rec.ReproElf = sidecarElfPath(Stem);
      writeSidecarElf(Stem, RR.Bytes);
      Log << "wrote " << Rec.ReproElf << " (" << RR.InstructionsLeft
          << " instructions, seed " << hexStr(R.RunSeed) << ")\n";
    }
    Res.Reductions.push_back(std::move(Rec));
    break; // one auto-reduction per campaign is enough signal
  }

  for (const Mutant *M : Mutants)
    Res.Mutants.push_back(probeMutant(*M, Opts, Log, nullptr));

  if (!Opts.ReduceMutant.empty()) {
    ReductionRecord Rec;
    if (reduceAndWrite(*findMutant(Opts.ReduceMutant), Opts, Log, Rec))
      Res.Reductions.push_back(std::move(Rec));
    else if (Res.Error.empty())
      Res.Error = "reduction of mutant " + Opts.ReduceMutant + " failed";
  }

  Log << "campaign " << (Res.success() ? "PASS" : "FAIL") << ": "
      << Res.Runs.size() << " runs, " << Res.oracleViolations()
      << " oracle violations, " << Res.checkFailures()
      << " check failures, " << Res.mutantsKilled() << "/"
      << Res.Mutants.size() << " mutants killed\n";
  return Res;
}

// --- the JSON report -----------------------------------------------------

namespace {

std::string jstr(const std::string &S) {
  return "\"" + diag::jsonEscape(S) + "\"";
}

std::string jhex(uint64_t V) { return "\"" + hexStr(V) + "\""; }

} // namespace

void writeFuzzJson(std::ostream &OS, const FuzzOptions &Opts,
                   const CampaignResult &R) {
  size_t Functions = 0, LiftedFns = 0, Theorems = 0, Proven = 0;
  size_t OracleWalks = 0, OracleStates = 0, ReduceSteps = 0;
  for (const RunRecord &Run : R.Runs) {
    Functions += Run.Functions;
    LiftedFns += Run.LiftedFns;
    Theorems += Run.Theorems;
    Proven += Run.Proven;
    OracleWalks += Run.OracleWalks;
    OracleStates += Run.OracleStates;
  }
  for (const ReductionRecord &Red : R.Reductions)
    ReduceSteps += Red.Steps;

  double KillRate =
      R.Mutants.empty()
          ? 1.0
          : static_cast<double>(R.mutantsKilled()) /
                static_cast<double>(R.Mutants.size());
  char KillRateBuf[32];
  std::snprintf(KillRateBuf, sizeof(KillRateBuf), "%.4f", KillRate);

  OS << "{\n";
  OS << "  \"fuzz_schema_version\": " << diag::FuzzSchemaVersion << ",\n";
  OS << "  \"seed\": " << jhex(Opts.Seed) << ",\n";
  OS << "  \"runs_requested\": " << Opts.Runs << ",\n";
  OS << "  \"runs_completed\": " << R.Runs.size() << ",\n";
  OS << "  \"max_insns\": " << Opts.MaxInsns << ",\n";
  OS << "  \"oracle_runs_per_function\": " << Opts.OracleRuns << ",\n";
  OS << "  \"mutate_semantics\": "
     << (R.Mutants.empty() ? "false" : "true") << ",\n";
  OS << "  \"budget_stopped\": " << (R.BudgetStopped ? "true" : "false")
     << ",\n";
  OS << "  \"error\": " << jstr(R.Error) << ",\n";
  OS << "  \"success\": " << (R.success() ? "true" : "false") << ",\n";

  OS << "  \"totals\": {\n";
  OS << "    \"functions\": " << Functions << ",\n";
  OS << "    \"functions_lifted\": " << LiftedFns << ",\n";
  OS << "    \"edges_checked\": " << Theorems << ",\n";
  OS << "    \"edges_proven\": " << Proven << ",\n";
  OS << "    \"oracle_walks\": " << OracleWalks << ",\n";
  OS << "    \"oracle_states\": " << OracleStates << ",\n";
  OS << "    \"oracle_violations\": " << R.oracleViolations() << ",\n";
  OS << "    \"check_failures\": " << R.checkFailures() << ",\n";
  OS << "    \"mutants\": " << R.Mutants.size() << ",\n";
  OS << "    \"mutants_killed\": " << R.mutantsKilled() << ",\n";
  OS << "    \"kill_rate\": " << KillRateBuf << ",\n";
  OS << "    \"reduce_steps\": " << ReduceSteps << "\n";
  OS << "  },\n";

  OS << "  \"runs\": [";
  for (size_t I = 0; I < R.Runs.size(); ++I) {
    const RunRecord &Run = R.Runs[I];
    OS << (I ? ",\n" : "\n");
    OS << "    {\"index\": " << Run.Index << ", \"seed\": "
       << jhex(Run.RunSeed) << ", \"gen_seed\": " << jhex(Run.GenSeed)
       << ", \"oracle_seed\": " << jhex(Run.OracleSeed)
       << ", \"name\": " << jstr(Run.Name)
       << ", \"library\": " << (Run.Library ? "true" : "false")
       << ", \"outcome\": " << jstr(Run.Outcome)
       << ", \"functions\": " << Run.Functions
       << ", \"functions_lifted\": " << Run.LiftedFns
       << ", \"instructions\": " << Run.Instructions
       << ", \"edges_checked\": " << Run.Theorems
       << ", \"edges_proven\": " << Run.Proven
       << ", \"oracle_walks\": " << Run.OracleWalks
       << ", \"oracle_states\": " << Run.OracleStates
       << ", \"ok\": " << (Run.ok() ? "true" : "false")
       << ", \"check_failures\": [";
    for (size_t J = 0; J < Run.CheckFailures.size(); ++J)
      OS << (J ? ", " : "") << jstr(Run.CheckFailures[J]);
    OS << "], \"oracle_violations\": [";
    for (size_t J = 0; J < Run.OracleViolations.size(); ++J)
      OS << (J ? ", " : "") << jstr(Run.OracleViolations[J]);
    OS << "]}";
  }
  OS << "\n  ],\n";

  OS << "  \"mutants\": [";
  for (size_t I = 0; I < R.Mutants.size(); ++I) {
    const MutantOutcome &M = R.Mutants[I];
    OS << (I ? ",\n" : "\n");
    OS << "    {\"name\": " << jstr(M.Name)
       << ", \"description\": " << jstr(M.Description)
       << ", \"scope\": " << jstr(M.Scope)
       << ", \"expected_killer\": " << jstr(M.ExpectedKiller)
       << ", \"killed\": " << (M.Killed ? "true" : "false")
       << ", \"killed_by\": " << jstr(M.KilledBy)
       << ", \"kill_seed\": " << jhex(M.KillSeed)
       << ", \"probes\": " << M.Probes << ", \"kill\": {\"function\": "
       << jhex(M.KillFn) << ", \"addr\": " << jhex(M.KillAddr)
       << ", \"detail\": " << jstr(M.Detail) << "}}";
  }
  OS << "\n  ],\n";

  OS << "  \"reductions\": [";
  for (size_t I = 0; I < R.Reductions.size(); ++I) {
    const ReductionRecord &Red = R.Reductions[I];
    OS << (I ? ",\n" : "\n");
    OS << "    {\"mutant\": " << jstr(Red.Mutant)
       << ", \"seed\": " << jhex(Red.Seed) << ", \"steps\": " << Red.Steps
       << ", \"functions_before\": " << Red.FunctionsBefore
       << ", \"instructions_before\": " << Red.InstructionsBefore
       << ", \"functions_after\": " << Red.FunctionsAfter
       << ", \"instructions_after\": " << Red.InstructionsAfter
       << ", \"layer\": " << jstr(Red.Layer)
       << ", \"repro_elf\": " << jstr(Red.ReproElf)
       << ", \"repro_json\": " << jstr(Red.ReproJson)
       << ", \"replayed\": " << (Red.Replayed ? "true" : "false") << "}";
  }
  OS << "\n  ]\n";
  OS << "}\n";
}

// --- replay --------------------------------------------------------------

int replayReproducer(const std::string &JsonPath, std::ostream &Log) {
  std::ifstream In(JsonPath);
  if (!In) {
    Log << "replay: cannot open " << JsonPath << "\n";
    return 2;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  auto Doc = diag::parseJson(SS.str());
  if (!Doc || !Doc->isObj()) {
    Log << "replay: malformed reproducer JSON\n";
    return 2;
  }
  if (static_cast<unsigned>(Doc->num("fuzz_schema_version")) !=
      diag::FuzzSchemaVersion) {
    Log << "replay: unsupported fuzz_schema_version\n";
    return 2;
  }
  if (Doc->str("kind") != "hglift-fuzz-reproducer") {
    Log << "replay: not a fuzz reproducer\n";
    return 2;
  }

  std::string Elf = Doc->str("elf");
  if (Elf.empty()) {
    Log << "replay: missing elf field\n";
    return 2;
  }
  if (Elf.front() != '/') {
    size_t Pos = JsonPath.find_last_of('/');
    if (Pos != std::string::npos)
      Elf = JsonPath.substr(0, Pos + 1) + Elf;
  }
  auto Img = elf::readElfFile(Elf);
  if (!Img) {
    Log << "replay: cannot read " << Elf << "\n";
    return 2;
  }

  std::string MutantName = Doc->str("mutant");
  const Mutant *M = nullptr;
  if (!MutantName.empty()) {
    M = findMutant(MutantName);
    if (!M) {
      Log << "replay: unknown mutant " << MutantName << "\n";
      return 2;
    }
  }
  bool Library = false;
  if (const diag::JValue *L = Doc->get("library"))
    Library = L->B;
  uint64_t OracleSeed =
      std::strtoull(Doc->str("oracle_seed", "0").c_str(), nullptr, 0);
  unsigned OracleRuns =
      static_cast<unsigned>(Doc->num("oracle_runs", 3));

  PipelineOut P = runPipeline(*Img, Library, M, OracleSeed, OracleRuns);
  std::string Layer = !P.CheckFailures.empty()          ? "step2"
                      : !P.Oracle.Violations.empty() ? "oracle"
                                                     : "";
  if (Layer.empty()) {
    Log << "replay: did not reproduce (" << P.Proven << "/" << P.Theorems
        << " theorems proven, " << P.Oracle.States
        << " oracle states clean)\n";
    return 1;
  }
  std::string Detail = Layer == "step2" ? P.CheckFailures.front()
                                        : P.Oracle.Violations.front().Message;
  Log << "replay: reproduced via " << Layer << ": " << Detail << "\n";
  if (Doc->str("expect") != Layer)
    Log << "replay: note: originally recorded layer was "
        << Doc->str("expect") << "\n";
  return 0;
}

} // namespace hglift::fuzz
