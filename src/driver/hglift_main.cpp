//===- hglift_main.cpp - The hglift command-line tool --------------------===//
//
//   hglift [lift|check] <binary.elf> [options]  lift (and check) a binary
//   hglift shard <bin.elf>... --cache-dir DIR   multi-process corpus lifting
//   hglift serve --socket PATH [--client]       lifting daemon, or its client
//   hglift fuzz [options]                       soundness fuzzing campaign
//   hglift explain <report.json>                root-cause narratives
//
// Every flag is a row of the flag table (driver/Flags.h), which also
// generates the usage text: `hglift` without arguments prints it all.
// This file only dispatches the parsed CommandLine. Exit codes follow one
// table for every subcommand (driver/ExitCode.h): 0 = claim holds, 1 =
// analysis rejected the input, 2 = bad invocation, 3 = artifact not
// writable. docs/CLI.md documents every flag and JSON payload.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "diag/Trace.h"
#include "driver/ExitCode.h"
#include "driver/Flags.h"
#include "driver/Report.h"
#include "elf/ElfReader.h"
#include "export/DotExport.h"
#include "export/IsabelleExport.h"
#include "support/Format.h"
#include "witness/Witness.h"

#include <fstream>
#include <iostream>
#include <memory>

using namespace hglift;
using driver::CommandLine;
using driver::ExitCode;
using driver::toExit;
using driver::writeArtifact;

namespace {

int fuzzMain(const CommandLine &CL) {
  if (!CL.Replay.empty())
    return witness::replayAny(CL.Replay, std::cout);

  fuzz::CampaignResult R = fuzz::runCampaign(CL.Fuzz, std::cout);
  if (!R.Error.empty()) {
    std::cerr << "fuzz: " << R.Error << "\n";
    return toExit(ExitCode::Usage);
  }
  if (!writeArtifact(CL.Fuzz.JsonPath, "fuzz report", [&](std::ostream &OS) {
        fuzz::writeFuzzJson(OS, CL.Fuzz, R);
      }))
    return toExit(ExitCode::Io);
  return toExit(R.success() ? ExitCode::Ok : ExitCode::Fail);
}

/// `hglift shard`: multi-process corpus lifting (shard/Shard.h). The same
/// entry also hosts the internal worker mode — `--shard-worker-fds G,R`
/// claims work units over the grant/request pipe pair until told BYE.
int shardMain(const CommandLine &CL) {
  const shard::ShardOptions &Opt = CL.Shard;
  if (CL.WorkerFds.first >= 0)
    return shard::runWorkerLoop(Opt, CL.WorkerFds.first, CL.WorkerFds.second);

  shard::ShardResult R = shard::runShards(Opt);
  if (!writeArtifact(CL.StatsJson, "", [&](std::ostream &OS) {
        shard::writeShardStatsJson(OS, Opt, R);
      }))
    return toExit(ExitCode::Io);
  if (!R.Ok) {
    std::cerr << "shard: " << R.Error << "\n";
    return R.Exit;
  }
  std::cout << "shard: " << Opt.Binaries.size() << " binaries across "
            << R.ShardsResolved << " shard(s), " << R.WorkersSpawned
            << " worker(s) spawned, " << R.WorkersCrashed << " crashed, "
            << R.WorkersRetried << " retried, " << R.Sched.Steals
            << " stolen unit(s)\n";
  if (CL.ReportJson.empty())
    std::cout << R.MergedReport;
  else if (!writeArtifact(CL.ReportJson, "merged report",
                          [&](std::ostream &OS) { OS << R.MergedReport; }))
    return toExit(ExitCode::Io);
  return R.Exit;
}

int liftMain(const CommandLine &CL) {
  const std::string &Path = CL.Binary;
  const Options &Opt = CL.Opt;

  // The tracer must outlive lifting AND checking; installing it before the
  // session is created also captures arena setup. Scope ends before the
  // report/export writers run (their output is not traced).
  std::unique_ptr<std::ofstream> TraceFile;
  std::unique_ptr<diag::Tracer> Tracer;
  std::unique_ptr<diag::TracerScope> TracerInstall;
  if (!CL.Trace.empty()) {
    TraceFile = std::make_unique<std::ofstream>(CL.Trace);
    if (!*TraceFile) {
      std::cerr << "cannot open " << CL.Trace << " for writing\n";
      return toExit(ExitCode::Io);
    }
    Tracer = std::make_unique<diag::Tracer>(*TraceFile, Path);
    TracerInstall = std::make_unique<diag::TracerScope>(*Tracer);
  }

  auto Img = elf::readElfFile(Path);
  if (!Img) {
    std::cerr << "error: cannot parse ELF file " << Path << "\n";
    return toExit(ExitCode::Fail);
  }

  Session S(*Img, Opt);
  if (CL.Mutant) {
    // Plant the deliberately-wrong semantics during lifting (and during
    // the Step-2 check too when the mutant corrupts both layers), then
    // restore clean semantics: the witness search and the oracle are the
    // judges and must run the true machine.
    fuzz::MutantInstall MI(*CL.Mutant);
    S.lift();
    if (CL.Mutant->Scope == fuzz::MutantScope::Both && CL.Check)
      S.check();
  }
  const hg::BinaryResult &R = S.lift();
  S.printReport(std::cout, CL.DumpHG);
  if (std::optional<store::CacheStats> CS = S.cacheStats())
    std::cout << "cache: " << CS->Hits << " hits, " << CS->Misses
              << " misses, " << CS->Stored << " stored, " << CS->Validated
              << " revalidated, " << CS->Evictions << " evicted\n";

  if (!writeArtifact(CL.StatsJson, "lifting stats",
                     [&](std::ostream &OS) { S.writeStatsJson(OS); }))
    return toExit(ExitCode::Io);

  if (CL.Check) {
    const exporter::CheckResult &C = S.check();
    std::cout << "step 2: " << C.Proven << "/" << C.Theorems
              << " Hoare triples proven\n";
    for (const std::string &F : C.Failures)
      std::cout << "  FAILED: " << F << "\n";
  }

  if (!Opt.Witness.Dir.empty()) {
    std::ifstream ElfIn(Path, std::ios::binary);
    std::vector<uint8_t> ElfBytes(std::istreambuf_iterator<char>(ElfIn), {});
    const diag::WitnessSummary &W = witness::attachWitnesses(
        S, ElfBytes.empty() ? nullptr : &ElfBytes);
    std::cout << "witnesses: " << W.Confirmed << " confirmed, "
              << W.Unconfirmed << " unconfirmed of " << W.Searched
              << " site(s) (budget " << W.Budget << ")\n";
    for (const diag::WitnessRecord &Rec : W.Records)
      if (!Rec.SidecarJson.empty())
        std::cout << "  witness " << hexStr(Rec.Function) << "/"
                  << hexStr(Rec.Addr) << " -> " << Opt.Witness.Dir << "/"
                  << Rec.SidecarJson
                  << (Rec.Replayed ? " (replayed)" : "") << "\n";
  }

  if (!writeArtifact(CL.ReportJson, "verification report",
                     [&](std::ostream &OS) { S.writeReportJson(OS); }))
    return toExit(ExitCode::Io);

  // Flush the trace before the exporters (they are untraced anyway) so a
  // crash in them still leaves a complete, well-formed trace file.
  TracerInstall.reset();
  Tracer.reset();
  TraceFile.reset();

  if (!CL.IsabelleOut.empty()) {
    exporter::IsabelleOptions Opts;
    Opts.TheoryName = R.Name.empty() ? "lifted_binary" : R.Name;
    size_t Lemmas = 0;
    std::string Thy = exporter::exportBinary(R, Opts, &Lemmas);
    if (!writeArtifact(CL.IsabelleOut,
                       std::to_string(Lemmas) + " Hoare-triple lemmas",
                       [&](std::ostream &OS) { OS << Thy; }))
      return toExit(ExitCode::Io);
  }
  if (!writeArtifact(CL.DotOut, "Graphviz graph", [&](std::ostream &OS) {
        OS << exporter::exportDotBinary(R);
      }))
    return toExit(ExitCode::Io);
  return toExit(S.verdict(CL.Check));
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL;
  if (!driver::parseCommandLine(argc, argv, CL, std::cerr)) {
    // Bare `hglift` gets every subcommand's usage.
    driver::printUsage(std::cerr, argc > 1 ? std::optional(CL.Cmd)
                                           : std::nullopt);
    return toExit(ExitCode::Usage);
  }
  switch (CL.Cmd) {
  case driver::Command::Lift:
    return liftMain(CL);
  case driver::Command::Shard:
    return shardMain(CL);
  case driver::Command::Serve:
    if (CL.Serve.Client)
      return serve::runServeClient(CL.Serve, CL.Explain, std::cout, std::cerr);
    return serve::runServe(CL.Serve, std::cout, std::cerr);
  case driver::Command::Fuzz:
    return fuzzMain(CL);
  case driver::Command::Explain:
    return driver::runExplain(CL.Explain, std::cout, std::cerr);
  }
  return toExit(ExitCode::Usage);
}
