//===- parallel_cache_test.cpp - Cache store under concurrency -----------===//
//
// The artifact store's concurrency contract: lookups and stores may race
// freely — across the parallel lifting engine's workers sharing one
// CacheStore, and across independent stores (processes) sharing one
// directory — and the worst possible outcome is a redundant lift, never a
// torn entry, a wrong hit, or a crash. The file name keeps the "parallel"
// stem so the TSAN configuration (-R parallel) races these paths.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "store/Store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

using namespace hglift;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Name)
      : Path(fs::path("/tmp") / ("hglift_parallel_cache_" + Name)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
  std::string str() const { return Path.string(); }
};

TEST(ParallelCache, WorkersShareOneStore) {
  // The parallel lifting engine's workers hit the same CacheStore from
  // many threads: cold (all stores race) and warm (all validations race).
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  TempDir Dir("workers");

  Options O;
  O.Cache.Dir = Dir.str();
  O.Lift.Threads = 4;

  std::string Cold, Warm;
  {
    Session S(BB->Img, O);
    S.lift();
    S.check();
    std::ostringstream OS;
    S.writeReportJson(OS);
    Cold = OS.str();
    auto CS = S.cacheStats();
    ASSERT_TRUE(CS.has_value());
    EXPECT_GT(CS->Stored, 0u);
  }
  {
    Session S(BB->Img, O);
    S.lift();
    S.check();
    std::ostringstream OS;
    S.writeReportJson(OS);
    Warm = OS.str();
    auto CS = S.cacheStats();
    ASSERT_TRUE(CS.has_value());
    EXPECT_EQ(CS->Misses, 0u);
    EXPECT_EQ(CS->Validated, CS->Hits);
  }
  EXPECT_EQ(Cold, Warm)
      << "fully-cached parallel run must reproduce the report bytes";
}

TEST(ParallelCache, IndependentWritersRaceOneDirectory) {
  // Many independent stores (modeling many processes) populate one
  // directory at once. Every interleaving of tempfile+rename publishes
  // only complete entries, so a subsequent warm lift hits everything.
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  TempDir Dir("racers");

  constexpr unsigned Racers = 4;
  std::vector<std::thread> Threads;
  std::vector<store::CacheStats> Stats(Racers);
  for (unsigned I = 0; I < Racers; ++I)
    Threads.emplace_back([&, I] {
      store::CacheStore Store({Dir.str(), 0});
      hg::LiftConfig Cfg;
      Cfg.Cache = &Store;
      hg::Lifter L(BB->Img, Cfg);
      hg::BinaryResult R = L.liftBinary();
      EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
      Stats[I] = Store.stats();
    });
  for (std::thread &T : Threads)
    T.join();

  // No lookup may ever fail validation (a hit is either absent or whole),
  // and at least one racer must have written every function.
  uint64_t MaxStored = 0;
  for (const store::CacheStats &S : Stats) {
    EXPECT_EQ(S.ValidationFailures, 0u);
    MaxStored = std::max(MaxStored, S.Stored);
  }
  EXPECT_GT(MaxStored, 0u);

  store::CacheStore Store({Dir.str(), 0});
  hg::LiftConfig Cfg;
  Cfg.Cache = &Store;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  EXPECT_EQ(Store.stats().Misses, 0u)
      << "after the race settles, every function must hit";
}

TEST(ParallelCache, RacingSessionsAgreeOnResults) {
  // Two whole Sessions (lift + check) race on one directory; both must
  // produce the same report bytes as an uncached run.
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  TempDir Dir("sessions");

  std::string Plain;
  {
    Session S(BB->Img, Options());
    S.lift();
    S.check();
    std::ostringstream OS;
    S.writeReportJson(OS);
    Plain = OS.str();
  }

  constexpr unsigned N = 3;
  std::vector<std::string> Reports(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Options O;
      O.Cache.Dir = Dir.str();
      Session S(BB->Img, O);
      S.lift();
      S.check();
      std::ostringstream OS;
      S.writeReportJson(OS);
      Reports[I] = OS.str();
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Reports[I], Plain) << "racing session " << I << " diverged";
}

TEST(ParallelCache, InterleavedSessionsKeepTheirOwnProofs) {
  // Sessions sharing one store instance, as the serve daemon's workers do:
  // B is constructed, A lifts with hits, B lifts a library with a
  // different function at a colliding entry address, and only then do B
  // and A check. A hit carries its own proof, so each report must equal
  // its cold one, Step-2 summary included.
  corpus::GenOptions G;
  G.NumFuncs = 3;
  G.Seed = 11;
  auto A = corpus::randomLibrary(G);
  G.Seed = 12;
  auto B = corpus::randomLibrary(G);
  ASSERT_TRUE(A.has_value() && B.has_value());
  TempDir Dir("interleaved");

  Options O;
  O.Library = true;
  O.Lift.Threads = 2;
  auto Report = [](Session &S) {
    S.check();
    std::ostringstream OS;
    S.writeReportJson(OS);
    return OS.str();
  };
  std::string ColdA, ColdB;
  {
    Session S(A->Img, O);
    ColdA = Report(S);
  }
  {
    Session S(B->Img, O);
    ColdB = Report(S);
  }

  store::CacheStore Store({Dir.str(), 0});
  O.Cache.Shared = &Store;
  {
    Session Fill(A->Img, O);
    Fill.lift();
  }
  Session SB(B->Img, O);
  Session SA(A->Img, O);
  const hg::BinaryResult &RA = SA.lift();
  EXPECT_EQ(Store.stats().Hits, RA.Functions.size());
  uint64_t Misses = Store.stats().Misses;
  const hg::BinaryResult &RB = SB.lift();
  std::set<uint64_t> EntriesA;
  for (const hg::FunctionResult &F : RA.Functions)
    EntriesA.insert(F.Entry);
  size_t Colliding = 0;
  for (const hg::FunctionResult &F : RB.Functions)
    Colliding += EntriesA.count(F.Entry);
  ASSERT_GT(Colliding, 0u) << "the two libraries must share an entry";
  EXPECT_EQ(Store.stats().Misses - Misses, RB.Functions.size())
      << "B's functions differ from A's, so none of them may hit";

  EXPECT_EQ(Report(SB), ColdB);
  EXPECT_EQ(Report(SA), ColdA);
}

TEST(ParallelCache, EvictionRacesLookups) {
  // A tiny byte budget makes every store trigger the eviction sweep while
  // other workers are mid-lookup; misses from evicted entries just relift.
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  TempDir Dir("evict");

  constexpr unsigned Racers = 3;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Racers; ++I)
    Threads.emplace_back([&] {
      store::CacheStore Store({Dir.str(), /*MaxBytes=*/64});
      hg::LiftConfig Cfg;
      Cfg.Cache = &Store;
      hg::Lifter L(BB->Img, Cfg);
      hg::BinaryResult R = L.liftBinary();
      EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
    });
  for (std::thread &T : Threads)
    T.join();
}

} // namespace
