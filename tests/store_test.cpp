//===- store_test.cpp - Artifact store: round-trip + robustness ----------===//
//
// The serialization contract: serialize(deserialize(x)) is byte-identical
// to serialize(x) for every lifted corpus function (fixtures plus a
// fuzz-corpus sample), and a fully cached Session produces the exact
// --report-json bytes of a cold one. The robustness contract: every way a
// stored entry can be wrong — truncation, bit flips, a stale schema
// version, a changed config, patched instruction bytes — degrades to a
// clean miss and a fresh lift, never to a crash or a trusted bad graph.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "store/Serialize.h"
#include "store/Store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

using namespace hglift;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory under /tmp, wiped on construction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Name)
      : Path(fs::path("/tmp") / ("hglift_store_test_" + Name)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
  std::string str() const { return Path.string(); }
};

std::vector<std::optional<corpus::BuiltBinary>> roundTripCorpus() {
  std::vector<std::optional<corpus::BuiltBinary>> Out;
  Out.push_back(corpus::straightlineBinary());
  Out.push_back(corpus::branchLoopBinary());
  Out.push_back(corpus::jumpTableBinary(7));
  Out.push_back(corpus::callChainBinary());
  Out.push_back(corpus::callbackBinary());
  Out.push_back(corpus::weirdEdgeBinary());
  // Fuzz-corpus sample: the same generator the fuzz campaign draws from.
  for (uint64_t Seed : {0x5eedull, 0xf00dull, 0x1234ull}) {
    corpus::GenOptions G;
    G.Seed = Seed;
    G.NumFuncs = 3;
    G.TargetInstrs = 35;
    G.JumpTablePct = 25;
    Out.push_back(corpus::randomBinary(G));
  }
  return Out;
}

/// FNV-1a over all bytes but the trailing checksum, written back into the
/// trailing checksum slot — lets tests patch a field and keep the entry
/// checksum-valid so the *semantic* gate under test is the one that fires.
void fixupChecksum(std::vector<uint8_t> &Bytes) {
  ASSERT_GE(Bytes.size(), 8u);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I + 8 < Bytes.size(); ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL;
  }
  for (int I = 0; I < 8; ++I)
    Bytes[Bytes.size() - 8 + I] = static_cast<uint8_t>(H >> (8 * I));
}

TEST(StoreRoundTrip, SerializeDeserializeByteIdentical) {
  size_t Functions = 0;
  for (auto &BB : roundTripCorpus()) {
    ASSERT_TRUE(BB.has_value());
    hg::LiftConfig Cfg;
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = L.liftBinary();
    for (const hg::FunctionResult &F : R.Functions) {
      if (F.Outcome != hg::LiftOutcome::Lifted || !F.Arena)
        continue;
      ++Functions;
      std::vector<uint8_t> Bytes = store::serializeFunction(F, BB->Img, Cfg);
      ASSERT_FALSE(Bytes.empty());

      std::optional<hg::FunctionResult> G =
          store::deserializeFunction(Bytes, BB->Img, Cfg);
      ASSERT_TRUE(G.has_value())
          << "fn " << std::hex << F.Entry << " of " << R.Name;
      EXPECT_EQ(G->Entry, F.Entry);
      EXPECT_EQ(G->MayReturn, F.MayReturn);
      EXPECT_EQ(G->Graph.Vertices.size(), F.Graph.Vertices.size());
      EXPECT_EQ(G->Graph.edges().size(), F.Graph.edges().size());
      EXPECT_EQ(G->Obligations, F.Obligations);
      EXPECT_EQ(G->Callees, F.Callees);
      EXPECT_EQ(G->Diags.size(), F.Diags.size());
      // The deserialized copy lives in its own arena; its fresh counter
      // resumes where the producer's left off.
      EXPECT_EQ(G->ctx().freshCounter(), F.ctx().freshCounter());

      std::vector<uint8_t> Bytes2 =
          store::serializeFunction(*G, BB->Img, Cfg);
      EXPECT_EQ(Bytes, Bytes2)
          << "re-serializing the deserialized fn " << std::hex << F.Entry
          << " of " << R.Name << " must reproduce the exact bytes";
    }
  }
  EXPECT_GE(Functions, 10u);
}

TEST(StoreRoundTrip, SerializationIsDeterministic) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  for (const hg::FunctionResult &F : R.Functions)
    EXPECT_EQ(store::serializeFunction(F, BB->Img, Cfg),
              store::serializeFunction(F, BB->Img, Cfg));
}

TEST(StoreRoundTrip, DeserializedGraphPassesStep2) {
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg;
  hg::Lifter L(BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  exporter::CheckContext CC{BB->Img, Cfg.Sym};
  for (const hg::FunctionResult &F : R.Functions) {
    std::vector<uint8_t> Bytes = store::serializeFunction(F, BB->Img, Cfg);
    auto G = store::deserializeFunction(Bytes, BB->Img, Cfg);
    ASSERT_TRUE(G.has_value());
    exporter::CheckResult C = exporter::checkFunction(CC, *G);
    EXPECT_GT(C.Theorems, 0u);
    EXPECT_EQ(C.Proven, C.Theorems)
        << (C.Failures.empty() ? "" : C.Failures[0]);
  }
}

TEST(StoreRoundTrip, ConfigDigestSeparatesVisibleKnobs) {
  hg::LiftConfig A, B;
  EXPECT_EQ(store::configDigest(A), store::configDigest(B));
  B.EnableJoin = false;
  EXPECT_NE(store::configDigest(A), store::configDigest(B));
  B = A;
  B.Sym.Policy = mem::UnknownPolicy::DestroyAlways;
  EXPECT_NE(store::configDigest(A), store::configDigest(B));
  // Bit-invisible knobs must NOT key the cache: thread count and the
  // wall-clock budget cannot change a lifted graph.
  B = A;
  B.Threads = 8;
  B.MaxSeconds = 1234.5;
  EXPECT_EQ(store::configDigest(A), store::configDigest(B));
}

// --- robustness: every malformation is a clean miss ----------------------

struct CacheHarness {
  std::optional<corpus::BuiltBinary> BB;
  hg::LiftConfig Cfg;
  TempDir Dir;
  explicit CacheHarness(const std::string &Name) : Dir(Name) {
    BB = corpus::callChainBinary();
  }
  /// Cold-populate the store, returning the per-function entry count.
  size_t populate() {
    store::CacheStore Store({Dir.str(), 0});
    Cfg.Cache = &Store;
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = L.liftBinary();
    Cfg.Cache = nullptr;
    EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
    return Store.stats().Stored;
  }
  /// Run a fresh warm lift and return its cache stats.
  store::CacheStats relift() {
    store::CacheStore Store({Dir.str(), 0});
    Cfg.Cache = &Store;
    hg::Lifter L(BB->Img, Cfg);
    hg::BinaryResult R = L.liftBinary();
    Cfg.Cache = nullptr;
    EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
    return Store.stats();
  }
  std::vector<fs::path> objects() {
    std::vector<fs::path> O;
    for (auto &E : fs::directory_iterator(Dir.Path / "objects"))
      O.push_back(E.path());
    return O;
  }
};

std::vector<uint8_t> slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void spit(const fs::path &P, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

TEST(StoreRobustness, WarmRunHitsEverything) {
  CacheHarness H("warm");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  EXPECT_GE(Stored, 2u);
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, Stored);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.Validated, Stored) << "every hit must be Step-2 re-proven";
  EXPECT_EQ(S.ValidationFailures, 0u);
}

TEST(StoreRobustness, TruncatedEntryIsCleanMiss) {
  CacheHarness H("trunc");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  auto Objs = H.objects();
  ASSERT_EQ(Objs.size(), Stored);
  for (const fs::path &O : Objs) {
    std::vector<uint8_t> Bytes = slurp(O);
    ASSERT_GT(Bytes.size(), 16u);
    Bytes.resize(Bytes.size() / 2);
    spit(O, Bytes);
  }
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, Stored);
  EXPECT_EQ(S.Stored, Stored) << "misses must re-lift and re-populate";
}

TEST(StoreRobustness, FlippedByteIsCleanMiss) {
  CacheHarness H("flip");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  for (const fs::path &O : H.objects()) {
    std::vector<uint8_t> Bytes = slurp(O);
    Bytes[Bytes.size() / 2] ^= 0x40; // payload bit flip; checksum catches it
    spit(O, Bytes);
  }
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, Stored);
}

TEST(StoreRobustness, WrongSchemaVersionIsCleanMiss) {
  CacheHarness H("schema");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  for (const fs::path &O : H.objects()) {
    std::vector<uint8_t> Bytes = slurp(O);
    // Bytes 4..8 hold the schema version (after the 4-byte magic). Bump it
    // and repair the trailing checksum so ONLY the version gate can fire.
    Bytes[4] += 1;
    fixupChecksum(Bytes);
    spit(O, Bytes);
    store::EntryHeader EH;
    EXPECT_FALSE(store::readHeader(Bytes, EH));
  }
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, Stored);
}

TEST(StoreRobustness, GarbageRefIsCleanMiss) {
  CacheHarness H("ref");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  for (auto &E : fs::directory_iterator(H.Dir.Path / "index")) {
    std::ofstream Out(E.path(), std::ios::trunc);
    Out << "not-a-digest\n";
  }
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, Stored);
}

TEST(StoreRobustness, ChangedConfigIsCleanMiss) {
  CacheHarness H("cfg");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  ASSERT_GE(Stored, 1u);
  H.Cfg.EnableJoin = false; // result-visible knob -> different digest
  store::CacheStats S = H.relift();
  EXPECT_EQ(S.Hits, 0u);
}

TEST(StoreRobustness, PatchedInstructionBytesAreCleanMiss) {
  // Simulate an incremental rebuild: same layout, one function's bytes
  // changed. Only that function may miss; the others still hit.
  CacheHarness H("patch");
  ASSERT_TRUE(H.BB.has_value());
  size_t Stored = H.populate();
  ASSERT_GE(Stored, 2u);

  // Lift once (uncached) to find a function body to patch.
  hg::Lifter L(H.BB->Img, H.Cfg);
  hg::BinaryResult R = L.liftBinary();
  const hg::FunctionResult *Victim = nullptr;
  for (const hg::FunctionResult &F : R.Functions)
    if (F.Outcome == hg::LiftOutcome::Lifted &&
        (!Victim || F.Entry > Victim->Entry))
      Victim = &F;
  ASSERT_NE(Victim, nullptr);
  std::vector<store::Span> Spans = store::instructionSpans(*Victim);
  ASSERT_FALSE(Spans.empty());

  // Flip a byte of the victim's first instruction in a *copy* of the
  // image (BinaryImage is shared by value via its segment vectors).
  corpus::BuiltBinary Patched = *H.BB;
  bool Done = false;
  for (elf::Segment &Seg : Patched.Img.Segments) {
    uint64_t A = Spans.front().first;
    if (Seg.contains(A)) {
      Seg.Bytes[A - Seg.VAddr] ^= 0x01;
      Done = true;
      break;
    }
  }
  ASSERT_TRUE(Done);

  store::CacheStore Store({H.Dir.str(), 0});
  hg::LiftConfig Cfg = H.Cfg;
  Cfg.Cache = &Store;
  hg::Lifter L2(Patched.Img, Cfg);
  (void)L2.liftBinary(); // outcome may legitimately change; digests decide
  store::CacheStats S = Store.stats();
  EXPECT_GE(S.Misses, 1u) << "the patched function must not hit";
  EXPECT_GE(S.Hits, 1u) << "untouched functions must still hit";
}

TEST(StoreRobustness, EvictionKeepsBudget) {
  CacheHarness H("evict");
  ASSERT_TRUE(H.BB.has_value());
  // A 1-byte budget forces eviction after every store.
  store::CacheStore Store({H.Dir.str(), 1});
  hg::LiftConfig Cfg;
  Cfg.Cache = &Store;
  hg::Lifter L(H.BB->Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  EXPECT_EQ(R.Outcome, hg::LiftOutcome::Lifted);
  EXPECT_GE(Store.stats().Evictions, 1u);
  uint64_t Left = 0;
  for (auto &E : fs::directory_iterator(H.Dir.Path / "objects"))
    Left += fs::file_size(E.path());
  EXPECT_LE(Left, 1u);
}

// --- facade-level byte identity ------------------------------------------

TEST(StoreSession, WarmReportJsonByteIdenticalToCold) {
  for (auto Make : {corpus::callChainBinary, corpus::branchLoopBinary,
                    corpus::weirdEdgeBinary}) {
    auto BB = Make();
    ASSERT_TRUE(BB.has_value());
    TempDir Dir("session_" + BB->Name);

    // The report, then the --stats-json payload with its wall-clock
    // values masked: a hit must report every counter its cold lift did.
    auto Render = [&](bool UseCache) {
      Options O;
      if (UseCache)
        O.Cache.Dir = Dir.str();
      Session S(BB->Img, O);
      S.lift();
      S.check();
      std::ostringstream OS;
      S.writeReportJson(OS);
      std::ostringstream Stats;
      S.writeStatsJson(Stats);
      static const std::regex Seconds("(\"(solver_)?seconds\": )[0-9.]+");
      return std::make_pair(OS.str(),
                            std::regex_replace(Stats.str(), Seconds, "$1#"));
    };

    auto NoCache = Render(false);
    auto Cold = Render(true);
    auto Warm = Render(true);
    EXPECT_EQ(NoCache.first, Cold.first)
        << BB->Name << ": cold cached run must not change bytes";
    EXPECT_EQ(Cold.first, Warm.first)
        << BB->Name << ": fully-cached run must not change bytes";
    EXPECT_EQ(NoCache.second, Cold.second) << BB->Name;
    EXPECT_EQ(Cold.second, Warm.second)
        << BB->Name << ": a hit must keep every lift counter";
  }
}

TEST(StoreSession, CacheStatsExposedThroughFacade) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  TempDir Dir("facade_stats");
  Options O;
  O.Cache.Dir = Dir.str();
  {
    Session S(BB->Img, O);
    S.lift();
    auto CS = S.cacheStats();
    ASSERT_TRUE(CS.has_value());
    EXPECT_GT(CS->Stored, 0u);
  }
  Session S(BB->Img, O);
  S.lift();
  auto CS = S.cacheStats();
  ASSERT_TRUE(CS.has_value());
  EXPECT_EQ(CS->Misses, 0u);
  EXPECT_GT(CS->Hits, 0u);

  Session NoCache(BB->Img, Options());
  NoCache.lift();
  EXPECT_FALSE(NoCache.cacheStats().has_value());
}

} // namespace
