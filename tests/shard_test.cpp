//===- shard_test.cpp - Multi-process sharded lifting ---------------------===//
//
// The shard runner's whole contract is "N processes, same bytes": the
// merged report of any worker count must be byte-identical to the serial
// run, a killed worker must be retried without a trace in the output, and
// a poisoned artifact-store entry must degrade to a clean re-lift in
// whichever process hits it. Workers are the real hglift binary
// (HGLIFT_BIN), spawned through shard::runShards exactly as the CLI does
// it.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "shard/Shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include <sys/wait.h>

using namespace hglift;
namespace fs = std::filesystem;

namespace {

/// One private directory per test process, removed at exit: shard_test,
/// shard_soak and shard_stress run this same binary, concurrently under
/// `ctest -j`, and shared paths would let one clear another's store
/// mid-run.
struct TmpRoot {
  std::string Path =
      (fs::temp_directory_path() / "hglift_shard_XXXXXX").string();
  TmpRoot() {
    if (!::mkdtemp(Path.data())) {
      std::perror("shard_test: mkdtemp");
      std::abort();
    }
  }
  ~TmpRoot() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

std::string tmpPath(const std::string &Name) {
  static TmpRoot Root;
  return Root.Path + "/" + Name;
}

void writeBinary(const corpus::BuiltBinary &BB, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(BB.ElfBytes.data()),
            static_cast<std::streamsize>(BB.ElfBytes.size()));
}

/// The corpus every test shares: a mix of clean lifts and one binary the
/// analysis rejects, so exit-code aggregation is exercised too.
std::vector<std::string> corpusOnDisk() {
  static std::vector<std::string> Paths = [] {
    std::vector<std::string> P;
    auto Put = [&](const char *Name,
                   std::optional<corpus::BuiltBinary> BB) {
      if (!BB)
        return;
      std::string Path = tmpPath(std::string(Name) + ".elf");
      writeBinary(*BB, Path);
      P.push_back(Path);
    };
    Put("callchain", corpus::callChainBinary());
    Put("jt", corpus::jumpTableBinary());
    Put("branch", corpus::branchLoopBinary());
    Put("overflow", corpus::overflowBinary());
    return P;
  }();
  return Paths;
}

shard::ShardOptions baseOptions(const std::string &CacheDir,
                                unsigned Shards) {
  shard::ShardOptions O;
  O.Binaries = corpusOnDisk();
  O.Shards = Shards;
  O.Base.Cache.Dir = CacheDir;
  O.Check = true;
  O.WorkerExe = HGLIFT_BIN;
  return O;
}

std::string readFileStr(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Run the hglift binary; returns its exit code.
int runCli(const std::string &Args) {
  int RC = std::system((std::string(HGLIFT_BIN) + " " + Args +
                        " >/dev/null 2>&1")
                           .c_str());
  return WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
}

shard::ShardResult runFresh(const std::string &Tag, unsigned Shards) {
  std::string Dir = tmpPath("cache_" + Tag);
  fs::remove_all(Dir);
  return shard::runShards(baseOptions(Dir, Shards));
}

TEST(ShardPlan, RoundRobinReferenceOwners) {
  // The static plan every steal is measured against: binary i belongs to
  // worker i % Shards, so the slices are balanced to within one unit.
  shard::ShardOptions O = baseOptions(tmpPath("cache_plan"), 3);
  O.Binaries.insert(O.Binaries.end(), O.Binaries.begin(), O.Binaries.end());
  shard::ShardSchedStats Sched;
  std::vector<shard::WorkUnit> Units = shard::planUnits(O, 3, Sched);
  ASSERT_EQ(Units.size(), O.Binaries.size());
  std::vector<size_t> PerOwner(3, 0);
  for (const shard::WorkUnit &U : Units) {
    EXPECT_EQ(U.RROwner, U.Bin % 3);
    ++PerOwner[U.RROwner];
  }
  EXPECT_EQ(PerOwner, (std::vector<size_t>{3, 3, 2}));
}

TEST(ShardMerge, SerialOneAndManyShardsAreByteIdentical) {
  shard::ShardResult Serial = runFresh("serial", 1);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  EXPECT_EQ(Serial.WorkersSpawned, 0u) << "serial mode runs in-process";
  EXPECT_FALSE(Serial.MergedReport.empty());
  // The corpus contains a rejected binary: aggregate exit must say so.
  EXPECT_EQ(Serial.Exit, 1);

  for (unsigned N : {2u, 4u}) {
    std::string Dir = tmpPath("cache_n" + std::to_string(N));
    fs::remove_all(Dir);
    shard::ShardOptions O = baseOptions(Dir, N);
    O.Progress = true; // progress writes stderr only; bytes must not move
    shard::ShardResult R = shard::runShards(O);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_GE(R.WorkersSpawned, std::min<size_t>(N, corpusOnDisk().size()));
    EXPECT_EQ(R.WorkersCrashed, 0u);
    EXPECT_EQ(R.Exit, Serial.Exit);
    EXPECT_EQ(R.MergedReport, Serial.MergedReport)
        << N << "-shard merge differs from the serial run";
  }
}

TEST(ShardMerge, KilledWorkerIsRetriedWithUnaffectedReport) {
  shard::ShardResult Clean = runFresh("clean", 3);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  // Shard 1's first attempt kills itself before lifting (the hook the
  // parent plants only in that child's environment); the retry must run
  // clean and the merged bytes must not betray that anything happened.
  ::setenv("HGLIFT_SHARD_TEST_CRASH", "1", 1);
  shard::ShardResult Crashed = runFresh("crashed", 3);
  ::unsetenv("HGLIFT_SHARD_TEST_CRASH");

  ASSERT_TRUE(Crashed.Ok) << Crashed.Error;
  EXPECT_EQ(Crashed.WorkersCrashed, 1u);
  EXPECT_EQ(Crashed.WorkersRetried, 1u);
  EXPECT_EQ(Crashed.Exit, Clean.Exit);
  EXPECT_EQ(Crashed.MergedReport, Clean.MergedReport);
}

TEST(ShardMerge, MidClaimCrashRequeuesUnitWithUnaffectedReport) {
  shard::ShardResult Clean = runFresh("mc_clean", 3);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  // Worker 1's first spawn claims a unit and dies before executing it —
  // the claimed-but-unfinished unit must go back to the queue, someone
  // must lift it, and the merged bytes must not change. The crashing run
  // uses the static round-robin plan: under work stealing, workers 0 and 2
  // can drain all four units before worker 1 asks, and worker 1 then gets
  // BYE and never crashes. Statically, binary 1's unit can go only to
  // worker 1 until it is requeued, so worker 1's first spawn always claims
  // a unit before it dies.
  std::string Dir = tmpPath("cache_mc_crashed");
  fs::remove_all(Dir);
  shard::ShardOptions O = baseOptions(Dir, 3);
  O.WorkStealing = false;
  ::setenv("HGLIFT_SHARD_TEST_CRASH_MIDCLAIM", "1", 1);
  shard::ShardResult Crashed = shard::runShards(O);
  ::unsetenv("HGLIFT_SHARD_TEST_CRASH_MIDCLAIM");

  ASSERT_TRUE(Crashed.Ok) << Crashed.Error;
  EXPECT_EQ(Crashed.WorkersCrashed, 1u);
  EXPECT_EQ(Crashed.WorkersRetried, 1u);
  EXPECT_GE(Crashed.Sched.Requeues, 1u)
      << "the claimed unit was never returned to the queue";
  EXPECT_EQ(Crashed.Exit, Clean.Exit);
  EXPECT_EQ(Crashed.MergedReport, Clean.MergedReport);
}

TEST(ShardSched, AutoShardsResolveAndStayByteIdentical) {
  // The probe itself: at least one worker, never more than the units.
  unsigned Auto = shard::resolveAutoShards(3);
  EXPECT_GE(Auto, 1u);
  EXPECT_LE(Auto, 3u);

  shard::ShardResult Serial = runFresh("auto_serial", 1);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;

  std::string Dir = tmpPath("cache_auto");
  fs::remove_all(Dir);
  shard::ShardOptions O = baseOptions(Dir, 1);
  O.Shards = 0; // auto
  shard::ShardResult R = shard::runShards(O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.ShardsResolved, 1u);
  EXPECT_LE(R.ShardsResolved, corpusOnDisk().size());
  EXPECT_EQ(R.Exit, Serial.Exit);
  EXPECT_EQ(R.MergedReport, Serial.MergedReport);
}

TEST(ShardSched, StaticAblationStealsNothingAndMatchesBytes) {
  shard::ShardResult Serial = runFresh("ab_serial", 1);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;

  std::string Dir = tmpPath("cache_ablation");
  fs::remove_all(Dir);
  shard::ShardOptions O = baseOptions(Dir, 2);
  O.WorkStealing = false;
  shard::ShardResult R = shard::runShards(O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Sched.Steals, 0u)
      << "--no-work-stealing granted outside the round-robin plan";
  EXPECT_EQ(R.Sched.Claims, R.Sched.UnitsTotal);
  EXPECT_EQ(R.MergedReport, Serial.MergedReport);
}

/// A shared object with several exported functions, for the library-mode
/// runs.
std::string sharedLibrary() {
  corpus::GenOptions G;
  G.Seed = 11;
  G.NumFuncs = 9;
  G.TargetInstrs = 18;
  G.JumpTablePct = 0;
  G.ExternalPct = 0;
  G.Name = "shardlib";
  auto Lib = corpus::randomLibrary(G);
  EXPECT_TRUE(Lib.has_value());
  std::string LibPath = tmpPath("shardlib.so");
  if (Lib)
    writeBinary(*Lib, LibPath);
  return LibPath;
}

TEST(ShardCli, LiftingFlagsReachWorkers) {
  // `--no-vsa` through the CLI: every worker must build its LiftConfig
  // from the parent's Options, so every store index ref names one config
  // digest, and the merged report is the serial run's and the plain
  // CLI's bytes. The library is given twice so two worker processes
  // really run, on the argv the flag table renders for them.
  std::string Lib = sharedLibrary() + " " + sharedLibrary();
  std::string Dir = tmpPath("cache_cli_novsa"),
              SerialDir = tmpPath("cache_cli_novsa_serial");
  fs::remove_all(Dir);
  fs::remove_all(SerialDir);
  std::string Flags = " --library --check --no-vsa --report-json ";
  std::string Merged = tmpPath("cli_novsa_merged.json"),
              Serial = tmpPath("cli_novsa_serial.json"),
              Cli = tmpPath("cli_novsa_check.json");
  int Exit = runCli("shard " + Lib + " --cache-dir " + Dir + Flags + Merged +
                    " --shards 2");
  EXPECT_LE(Exit, 1);
  EXPECT_EQ(runCli("shard " + Lib + " --cache-dir " + SerialDir + Flags +
                   Serial + " --shards 1"),
            Exit);
  EXPECT_EQ(runCli("check " + sharedLibrary() + Flags + Cli), Exit);

  // Index refs are named <entry>-<cfg>.ref; the in-process serial run
  // keys the store with the parent's own options.
  auto Digests = [](const std::string &Store) {
    std::set<std::string> D;
    for (const auto &E : fs::directory_iterator(Store + "/index")) {
      std::string Name = E.path().filename().string();
      D.insert(Name.substr(Name.find('-') + 1));
    }
    return D;
  };
  EXPECT_EQ(Digests(Dir).size(), 1u) << "workers keyed the store under "
                                        "different configs";
  EXPECT_EQ(Digests(Dir), Digests(SerialDir))
      << "workers lifted with other options than the parent";

  std::string Frag = readFileStr(Cli);
  while (!Frag.empty() && Frag.back() == '\n')
    Frag.pop_back();
  ASSERT_FALSE(Frag.empty());
  EXPECT_EQ(readFileStr(Merged), readFileStr(Serial));
  EXPECT_EQ(readFileStr(Merged),
            "{\"shard_schema_version\": 1, \"binaries\": [\n" + Frag +
                ",\n" + Frag + "\n]}\n");
}

TEST(ShardCache, PoisonedEntryDegradesToCleanMissAcrossProcesses) {
  std::string Dir = tmpPath("cache_poison");
  fs::remove_all(Dir);
  shard::ShardResult Cold = shard::runShards(baseOptions(Dir, 2));
  ASSERT_TRUE(Cold.Ok) << Cold.Error;

  // Corrupt every stored function object: truncate to half. The store's
  // checksum must reject them in whichever worker process reads them, and
  // the warm re-run must silently re-lift — identical report, no crash.
  size_t Poisoned = 0;
  for (auto &E : fs::directory_iterator(Dir + "/objects")) {
    std::ifstream In(E.path(), std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    In.close();
    ASSERT_GT(Bytes.size(), 16u);
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(),
              static_cast<std::streamsize>(Bytes.size() / 2));
    ++Poisoned;
  }
  ASSERT_GT(Poisoned, 0u);

  shard::ShardResult Warm = shard::runShards(baseOptions(Dir, 2));
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.Exit, Cold.Exit);
  EXPECT_EQ(Warm.MergedReport, Cold.MergedReport);
}

TEST(ShardErrors, UsageAndIoFailuresAreReportedNotHung) {
  shard::ShardOptions NoCache = baseOptions("", 2);
  NoCache.Base.Cache.Dir.clear();
  shard::ShardResult R = shard::runShards(NoCache);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Exit, 2);

  shard::ShardOptions Empty = baseOptions(tmpPath("cache_empty"), 2);
  Empty.Binaries.clear();
  R = shard::runShards(Empty);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Exit, 2);

  // An unreadable input is a per-binary rejection, not a crash: the run
  // completes with a synthetic "unreadable" fragment and exit 1.
  std::string Garbage = tmpPath("garbage.bin");
  std::ofstream(Garbage) << "this is not an elf";
  shard::ShardOptions WithGarbage = baseOptions(tmpPath("cache_garbage"), 2);
  fs::remove_all(tmpPath("cache_garbage"));
  WithGarbage.Binaries.push_back(Garbage);
  R = shard::runShards(WithGarbage);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.MergedReport.find("\"outcome\": \"unreadable\""),
            std::string::npos);
}

} // namespace
