//===- cli_test.cpp - End-to-end hglift CLI integration ------------------===//
//
// Exercises the shipped tool the way a user would: write a real ELF file,
// invoke `hglift` with its flags, inspect exit codes and artifacts. The
// CliFlags suites check the flag table (driver/Flags.h) itself: random
// CommandLines survive a trip through argv, and every numeric flag of
// every subcommand rejects malformed values.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "driver/Flags.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifndef HGLIFT_BIN
#error "HGLIFT_BIN must point at the hglift executable"
#endif

using namespace hglift;

namespace {

std::string tmpPath(const std::string &Name) {
  return std::string("/tmp/hglift_cli_") + Name;
}

void writeBinary(const corpus::BuiltBinary &BB, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(BB.ElfBytes.data()),
            static_cast<std::streamsize>(BB.ElfBytes.size()));
}

struct RunResult {
  int ExitCode;
  std::string Output;
};

RunResult runCli(const std::string &Args) {
  std::string Cmd = std::string(HGLIFT_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  while (P && fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int RC = P ? pclose(P) : -1;
  return RunResult{WEXITSTATUS(RC), Out};
}

TEST(Cli, LiftSucceedsWithCheck) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("callchain.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli(Path + " --check");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("outcome: lifted"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("Hoare triples proven"), std::string::npos);
}

TEST(Cli, RejectionExitsNonzero) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("overflow.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli(Path);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("unprovable-return"), std::string::npos)
      << R.Output;
}

TEST(Cli, ExportsArtifacts) {
  auto BB = corpus::jumpTableBinary(6);
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("jt.elf");
  writeBinary(*BB, Path);
  std::string Thy = tmpPath("jt.thy"), Dot = tmpPath("jt.dot");
  std::remove(Thy.c_str());
  std::remove(Dot.c_str());

  RunResult R = runCli(Path + " --export-isabelle " + Thy +
                       " --export-dot " + Dot);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  std::ifstream ThyIn(Thy);
  ASSERT_TRUE(ThyIn.good());
  std::stringstream ThyS;
  ThyS << ThyIn.rdbuf();
  EXPECT_NE(ThyS.str().find("theory "), std::string::npos);
  EXPECT_NE(ThyS.str().find("lemma "), std::string::npos);

  std::ifstream DotIn(Dot);
  ASSERT_TRUE(DotIn.good());
  std::stringstream DotS;
  DotS << DotIn.rdbuf();
  EXPECT_NE(DotS.str().find("digraph"), std::string::npos);
  EXPECT_NE(DotS.str().find("->"), std::string::npos);
}

TEST(Cli, WeirdEdgeVisibleInDot) {
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("weird.elf");
  writeBinary(*BB, Path);
  std::string Dot = tmpPath("weird.dot");

  RunResult R = runCli(Path + " --export-dot " + Dot);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream DotIn(Dot);
  std::stringstream DotS;
  DotS << DotIn.rdbuf();
  EXPECT_NE(DotS.str().find("weird"), std::string::npos)
      << "the §2 ROP edge must be flagged in the graph";
}

// Minimal JSON syntax checker: enough to reject unbalanced or truncated
// output from --stats-json without pulling in a parser dependency.
bool validJson(const std::string &S, size_t &I);

bool skipWs(const std::string &S, size_t &I) {
  while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
  return I < S.size();
}

bool validString(const std::string &S, size_t &I) {
  if (S[I] != '"')
    return false;
  for (++I; I < S.size(); ++I) {
    if (S[I] == '\\')
      ++I;
    else if (S[I] == '"') {
      ++I;
      return true;
    }
  }
  return false;
}

bool validJson(const std::string &S, size_t &I) {
  if (!skipWs(S, I))
    return false;
  char C = S[I];
  if (C == '{' || C == '[') {
    char Close = C == '{' ? '}' : ']';
    ++I;
    if (!skipWs(S, I))
      return false;
    if (S[I] == Close) {
      ++I;
      return true;
    }
    while (true) {
      if (C == '{') {
        if (!skipWs(S, I) || !validString(S, I) || !skipWs(S, I) ||
            S[I] != ':')
          return false;
        ++I;
      }
      if (!validJson(S, I) || !skipWs(S, I))
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      if (S[I] == Close) {
        ++I;
        return true;
      }
      return false;
    }
  }
  if (C == '"')
    return validString(S, I);
  size_t J = I;
  while (J < S.size() && (std::isalnum(static_cast<unsigned char>(S[J])) ||
                          S[J] == '-' || S[J] == '+' || S[J] == '.'))
    ++J;
  if (J == I)
    return false;
  I = J;
  return true;
}

bool validJsonDoc(const std::string &S) {
  size_t I = 0;
  if (!validJson(S, I))
    return false;
  skipWs(S, I);
  return I == S.size();
}

TEST(Cli, StatsJsonEmitsValidJson) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("stats.elf");
  writeBinary(*BB, Path);
  std::string Json = tmpPath("stats.json");
  std::remove(Json.c_str());

  RunResult R = runCli(Path + " --stats-json " + Json);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("wrote lifting stats"), std::string::npos);

  std::ifstream In(Json);
  ASSERT_TRUE(In.good()) << "stats file not written";
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();

  EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
  // Per-binary totals and the per-function stat fields must be present.
  for (const char *Key :
       {"\"binary\"", "\"outcome\"", "\"totals\"", "\"functions\"",
        "\"entry\"", "\"vertices\"", "\"joins\"", "\"widenings\"",
        "\"steps\"", "\"solver_queries\"", "\"seconds\""})
    EXPECT_NE(Doc.find(Key), std::string::npos) << "missing " << Key << "\n"
                                                << Doc;
  // callChainBinary has multiple functions: each gets its own record.
  size_t Entries = 0;
  for (size_t P = Doc.find("\"entry\""); P != std::string::npos;
       P = Doc.find("\"entry\"", P + 1))
    ++Entries;
  EXPECT_GE(Entries, 2u);
}

TEST(Cli, ThreadsFlagMatchesSerial) {
  auto BB = corpus::jumpTableBinary(5);
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("threads.elf");
  writeBinary(*BB, Path);

  RunResult R1 = runCli(Path + " --threads 1");
  RunResult R4 = runCli(Path + " --threads 4");
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_EQ(R4.ExitCode, R1.ExitCode);
  EXPECT_NE(R4.Output.find("outcome: lifted"), std::string::npos)
      << R4.Output;
  // The reports must agree apart from wall-clock timing lines.
  auto Strip = [](const std::string &S) {
    std::stringstream In(S), Out;
    std::string Line;
    while (std::getline(In, Line))
      if (Line.find("seconds") == std::string::npos &&
          Line.find("wall") == std::string::npos)
        Out << Line << "\n";
    return Out.str();
  };
  EXPECT_EQ(Strip(R1.Output), Strip(R4.Output));
}

TEST(Cli, BadFileRejected) {
  std::string Path = tmpPath("garbage.bin");
  std::ofstream(Path) << "this is not an elf";
  RunResult R = runCli(Path);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("cannot parse"), std::string::npos);
}

TEST(Cli, UnknownFlagUsage) {
  RunResult R = runCli("/dev/null --frobnicate");
  EXPECT_EQ(R.ExitCode, 2);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Cli, LiftSpellingAccepted) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("liftspelling.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli("--lift " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("outcome: lifted"), std::string::npos) << R.Output;
}

TEST(Cli, ReportJsonDeterministicAcrossThreads) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("reportdet.elf");
  writeBinary(*BB, Path);

  std::string First;
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::string Json = tmpPath("reportdet.json");
    std::remove(Json.c_str());
    RunResult R = runCli("--lift " + Path + " --check --threads " +
                         std::to_string(Threads) + " --report-json " + Json);
    EXPECT_NE(R.Output.find("wrote verification report"), std::string::npos)
        << R.Output;
    std::string Doc = slurp(Json);
    ASSERT_FALSE(Doc.empty());
    EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
    EXPECT_NE(Doc.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(Doc.find("\"provenance\""), std::string::npos)
        << "diagnostics must carry provenance:\n"
        << Doc;
    if (First.empty())
      First = Doc;
    else
      EXPECT_EQ(First, Doc)
          << "report bytes must not depend on --threads (threads="
          << Threads << ")";
  }
}

TEST(Cli, ExplainRendersRootCauseNarrative) {
  // The acceptance-criteria walkthrough: induce a verification error
  // (overflowBinary writes through the return address), produce a report,
  // and render it. The narrative must name the failing instruction and
  // show the relation-query chain.
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("explain.elf");
  writeBinary(*BB, Path);
  std::string Json = tmpPath("explain.json");

  RunResult Lift = runCli(Path + " --check --report-json " + Json);
  EXPECT_NE(Lift.ExitCode, 0) << "overflow must be rejected";

  RunResult R = runCli("explain " + Json);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("verification report for"), std::string::npos);
  EXPECT_NE(R.Output.find("verification-error"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("`ret`"), std::string::npos)
      << "the failing instruction's mnemonic must appear:\n"
      << R.Output;
  EXPECT_NE(R.Output.find("relation queries"), std::string::npos)
      << R.Output;

  // --function filters to one function; a bogus filter matches nothing.
  RunResult None = runCli("explain " + Json + " --function 0xdead");
  EXPECT_EQ(None.ExitCode, 0);
  EXPECT_NE(None.Output.find("no diagnostics"), std::string::npos)
      << None.Output;
}

TEST(Cli, ExplainRejectsGarbage) {
  std::string Path = tmpPath("notareport.json");
  std::ofstream(Path) << "not json";
  RunResult R = runCli("explain " + Path);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("not a JSON report"), std::string::npos)
      << R.Output;
}

TEST(Cli, FuzzSubcommandCleanAndDeterministic) {
  std::string J1 = tmpPath("fuzz1.json"), J2 = tmpPath("fuzz2.json");
  std::remove(J1.c_str());
  std::remove(J2.c_str());

  RunResult R1 = runCli("fuzz --seed 9 --runs 4 --fuzz-json " + J1);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("campaign PASS"), std::string::npos) << R1.Output;

  std::string Doc = slurp(J1);
  ASSERT_FALSE(Doc.empty()) << "fuzz report not written";
  EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"fuzz_schema_version\": 1"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"oracle_violations\": 0"), std::string::npos) << Doc;

  // Same seed, second process: the report must be byte-identical.
  RunResult R2 = runCli("fuzz --seed 9 --runs 4 --fuzz-json " + J2);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_EQ(Doc, slurp(J2)) << "fuzz report must be deterministic";
}

TEST(Cli, FuzzUnknownMutantUsage) {
  RunResult R = runCli("fuzz --seed 1 --runs 0 --mutate-semantics "
                       "--mutants no-such-mutant");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(Cli, TraceEmitsValidJsonLines) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("trace.elf");
  writeBinary(*BB, Path);
  std::string Trace = tmpPath("trace.jsonl");
  std::remove(Trace.c_str());

  RunResult R = runCli(Path + " --check --threads 4 --trace " + Trace);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  std::ifstream In(Trace);
  ASSERT_TRUE(In.good()) << "trace file not written";
  std::string Line;
  size_t Lines = 0;
  bool SawBegin = false, SawLift = false, SawCheck = false, SawEnd = false;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(validJsonDoc(Line)) << "line " << Lines << ": " << Line;
    SawBegin |= Line.find("\"trace_begin\"") != std::string::npos;
    SawLift |= Line.find("\"lift_end\"") != std::string::npos;
    SawCheck |= Line.find("\"edge_check\"") != std::string::npos;
    SawEnd |= Line.find("\"trace_end\"") != std::string::npos;
  }
  EXPECT_GT(Lines, 4u);
  EXPECT_TRUE(SawBegin && SawLift && SawCheck && SawEnd)
      << "begin=" << SawBegin << " lift=" << SawLift
      << " check=" << SawCheck << " end=" << SawEnd;
}

TEST(Cli, UnwritableExportsExitThree) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("export_io.elf");
  writeBinary(*BB, Path);
  for (const char *Flag : {"--export-dot", "--export-isabelle"}) {
    RunResult R =
        runCli(Path + " " + Flag + " /nonexistent_hglift_dir/out.txt");
    EXPECT_EQ(R.ExitCode, 3) << Flag << "\n" << R.Output;
    EXPECT_NE(R.Output.find("cannot open"), std::string::npos) << R.Output;
    EXPECT_EQ(R.Output.find("wrote"), std::string::npos) << R.Output;
  }
}

TEST(CliFlags, UsageErrorsNameTheirArgument) {
  RunResult R = runCli("--check");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("no binary given"), std::string::npos) << R.Output;

  R = runCli("lift /dev/null --max-seconds");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("--max-seconds needs a value"), std::string::npos)
      << R.Output;

  // A flag of another subcommand is not a lift flag.
  R = runCli("lift /dev/null --no-work-stealing");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option --no-work-stealing"),
            std::string::npos)
      << R.Output;

  // A removed flag is an unknown option, not a silently accepted no-op.
  R = runCli("shard /dev/null --cache-dir " + tmpPath("gone_cache") +
             " --steal-granularity function");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option --steal-granularity"),
            std::string::npos)
      << R.Output;
  R = runCli("check /dev/null --cache-dir " + tmpPath("gone_cache") +
             " --no-cache-validate");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option --no-cache-validate"),
            std::string::npos)
      << R.Output;

  R = runCli("/dev/null /dev/zero");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;

  // A client request that names a file needs one, before any connect.
  R = runCli("serve --socket /nonexistent_hglift_dir/s --client --op check");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("no file given"), std::string::npos) << R.Output;
}

TEST(CliFlags, MalformedNumbersExitTwo) {
  // Each prefix terminates quickly on its own should a malformed value be
  // wrongly accepted: lift and shard reject /dev/null, the client finds no
  // daemon, and the campaign has no runs.
  auto Prefix = [](driver::Command C) -> std::string {
    switch (C) {
    case driver::Command::Lift:
      return "lift /dev/null";
    case driver::Command::Shard:
      return "shard /dev/null --cache-dir " + tmpPath("malformed_cache");
    case driver::Command::Serve:
      return "serve --socket /nonexistent_hglift_dir/s --client --op metrics";
    case driver::Command::Fuzz:
      return "fuzz --runs 0";
    case driver::Command::Explain:
      return "explain /dev/null";
    }
    return "";
  };
  size_t Checked = 0;
  for (const driver::Flag &F : driver::flagTable()) {
    std::string Meta = F.Meta ? F.Meta : "";
    if (Meta != "N" && Meta != "N|auto")
      continue; // numeric values are always spelled N (or N|auto)
    for (driver::Command C :
         {driver::Command::Lift, driver::Command::Shard,
          driver::Command::Serve, driver::Command::Fuzz,
          driver::Command::Explain}) {
      if (!F.accepts(C))
        continue;
      for (const char *Bad : {"abc", "1x", "-1", ""}) {
        RunResult R = runCli(Prefix(C) + " " + F.Name + " '" + Bad + "'");
        EXPECT_EQ(R.ExitCode, 2) << Prefix(C) << " " << F.Name << " '" << Bad
                                 << "'\n" << R.Output;
        EXPECT_NE(R.Output.find(F.Name), std::string::npos) << R.Output;
        ++Checked;
      }
    }
  }
  EXPECT_GE(Checked, 100u);
}

/// A random CommandLine for Cmd, drawn field by field over everything the
/// CLI can express. Written against the structs, not the table, so a field
/// no row renders (or parses) makes the round trip fail.
driver::CommandLine randomCommandLine(Rng &R, driver::Command Cmd) {
  using driver::Command;
  driver::CommandLine CL;
  CL.Cmd = Cmd;
  auto Coin = [&R] { return R.below(2) == 1; };
  auto Name = [&R](const char *Stem) {
    return std::string(Stem) + std::to_string(R.below(1000));
  };
  auto Maybe = [&](const char *Stem) { return Coin() ? Name(Stem) : ""; };
  auto Secs = [&] {
    return Coin() ? 0.0
                  : double(R.below(1u << 20)) / double(1 + R.below(1000));
  };

  if (Cmd == Command::Lift || Cmd == Command::Shard ||
      Cmd == Command::Serve) {
    Options &O = CL.options();
    O.Library = Coin();
    O.Cache.Dir = Maybe("/tmp/cache");
    O.Cache.MaxMB = Coin() ? R.below(1u << 20) : 0;
    hg::LiftConfig &L = O.Lift;
    L.EnableJoin = Coin();
    if (Coin())
      L.Sym.Policy = mem::UnknownPolicy::DestroyAlways;
    L.Sym.Vsa = Coin();
    L.Sym.VsaMaxTargets = 1 + unsigned(R.below(500));
    L.MaxSeconds = Secs();
    L.MaxVertices = 1 + R.below(1u << 30);
    if (Cmd != Command::Serve)
      L.Threads = unsigned(R.below(64));
    if (Cmd != Command::Shard) {
      O.Witness.Dir = Maybe("/tmp/witness");
      O.Witness.Budget = 1 + unsigned(R.below(200));
    }
  }
  if (Cmd == Command::Lift || Cmd == Command::Shard) {
    CL.StatsJson = Maybe("stats.json");
    CL.ReportJson = Maybe("report.json");
  }

  switch (Cmd) {
  case Command::Lift:
    CL.Binary = Name("bin");
    CL.Check = Coin();
    CL.DumpHG = Coin();
    CL.Trace = Maybe("trace");
    CL.IsabelleOut = Maybe("thy");
    CL.DotOut = Maybe("dot");
    if (Coin()) {
      const std::vector<fuzz::Mutant> &Reg = fuzz::mutantRegistry();
      CL.Mutant = &Reg[R.below(Reg.size())];
    }
    break;
  case Command::Shard:
    CL.Shard.Check = Coin();
    for (uint64_t I = R.below(4); I > 0; --I)
      CL.Shard.Binaries.push_back(Name("bin"));
    CL.Shard.Shards = unsigned(R.below(9)); // 0 = auto
    CL.Shard.WorkStealing = Coin();
    CL.Shard.Progress = Coin();
    if (Coin())
      CL.WorkerFds = {int(R.below(1000)), int(R.below(1000))};
    break;
  case Command::Serve: {
    serve::ServeOptions &S = CL.Serve;
    S.SocketPath = Name("/tmp/sock");
    S.TcpPort = unsigned(R.below(65536));
    S.Workers = 1 + unsigned(R.below(16));
    S.MaxQueue = 1 + unsigned(R.below(1000));
    S.MemoMax = unsigned(R.below(1000));
    S.RetryAfterMs = unsigned(R.below(10000));
    S.Client = Coin();
    S.Op = serve::RequestOps[R.below(std::size(serve::RequestOps))];
    // A client request that names a file cannot go without one.
    bool NeedsFile = S.Client && S.Op != "metrics" && S.Op != "shutdown";
    S.File = NeedsFile ? Name("file") : Maybe("file");
    S.ReportOut = Maybe("out");
    CL.Explain.FunctionFilter = Maybe("0x40");
    CL.Explain.AddrFilter = Maybe("0x41");
    break;
  }
  case Command::Fuzz: {
    fuzz::FuzzOptions &F = CL.Fuzz;
    F.Seed = R.next();
    F.Runs = unsigned(R.below(1000));
    F.MaxInsns = 1 + unsigned(R.below(200));
    F.MutateSemantics = Coin();
    for (uint64_t I = R.below(3); I > 0; --I)
      F.MutantFilter.push_back(Name("mutant"));
    F.JsonPath = Maybe("fuzz.json");
    F.ReproDir = Coin() ? "." : Name("repro");
    F.ReduceMutant = Maybe("mutant");
    F.BudgetSeconds = Secs();
    F.OracleRuns = unsigned(R.below(10));
    CL.Replay = Maybe("sidecar");
    break;
  }
  case Command::Explain:
    CL.Explain.ReportPath = Name("report");
    CL.Explain.FunctionFilter = Maybe("0x40");
    CL.Explain.AddrFilter = Maybe("0x41");
    break;
  }
  return CL;
}

std::string joined(const std::vector<std::string> &Args) {
  std::string S;
  for (const std::string &A : Args)
    S += " " + A;
  return S;
}

TEST(CliFlags, RandomOptionsRoundTripThroughArgv) {
  // The shard worker's argv is exactly renderCommandLine of the parent's
  // ShardOptions (plus --shard-worker-fds), so this round trip is what
  // guarantees a worker lifts with the parent's configuration.
  Rng R(0x0f1a95);
  for (unsigned I = 0; I < 600; ++I) {
    driver::Command Cmd = driver::Command(I % 5);
    driver::CommandLine CL = randomCommandLine(R, Cmd);
    std::vector<std::string> Args = driver::renderCommandLine(CL);
    std::vector<const char *> Argv{"hglift"};
    for (const std::string &A : Args)
      Argv.push_back(A.c_str());
    driver::CommandLine Back;
    std::ostringstream Err;
    ASSERT_TRUE(driver::parseCommandLine(int(Argv.size()), Argv.data(), Back,
                                         Err))
        << Err.str() << joined(Args);
    EXPECT_TRUE(Back == CL)
        << "rendered:  " << joined(Args)
        << "\nreparsed:  " << joined(driver::renderCommandLine(Back));
  }
}

} // namespace
