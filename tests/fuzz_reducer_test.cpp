//===- fuzz_reducer_test.cpp - Delta-debugging reducer convergence --------===//
//
// Plant a known-bad semantics mutant, let the campaign find a killing
// multi-function binary, and check that the reducer shrinks the failure
// to a minimal reproducer: at most one function and a handful of live
// instructions, written to disk next to a seed sidecar that replays the
// same failure through `hglift fuzz --replay`.
//
// The reducer renders each probe incrementally (the current reduction plus
// the chunk being tried). A reference copy of the whole-image renderer it
// replaced pins that down: on corpus binaries and deterministic
// predicates, both must hand the predicate the same bytes in the same
// order and return the same result.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "fuzz/Campaign.h"
#include "fuzz/Reducer.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace hglift;
using fuzz::CampaignResult;
using fuzz::FuzzOptions;
using fuzz::ReductionRecord;

namespace {

bool fileExists(const std::string &P) {
  return std::ifstream(P).good();
}

void runReducerDemo(const std::string &MutantName, const char *ExpectLayer) {
  FuzzOptions O;
  O.Seed = 1;
  O.Runs = 0; // mutation probing only
  O.MutateSemantics = true;
  O.MutantFilter = {MutantName};
  O.ReduceMutant = MutantName;
  O.ReproDir = ::testing::TempDir();

  std::ostringstream Log;
  CampaignResult R = fuzz::runCampaign(O, Log);
  ASSERT_TRUE(R.Error.empty()) << R.Error << "\n" << Log.str();
  ASSERT_EQ(R.Reductions.size(), 1u) << Log.str();

  const ReductionRecord &Red = R.Reductions[0];
  EXPECT_EQ(Red.Mutant, MutantName);
  EXPECT_GT(Red.Steps, 0u);

  // Convergence: the planted violation lives in one instruction, so the
  // reducer must strip the binary down to (at most) the function holding
  // it and a short live tail.
  EXPECT_LE(Red.FunctionsAfter, 1u) << Log.str();
  EXPECT_LE(Red.InstructionsAfter, 8u) << Log.str();
  EXPECT_LE(Red.FunctionsAfter, Red.FunctionsBefore);
  EXPECT_LT(Red.InstructionsAfter, Red.InstructionsBefore);
  EXPECT_EQ(Red.Layer, ExpectLayer);

  // The on-disk reproducer pair exists and replays the failure.
  ASSERT_TRUE(fileExists(Red.ReproElf)) << Red.ReproElf;
  ASSERT_TRUE(fileExists(Red.ReproJson)) << Red.ReproJson;
  EXPECT_TRUE(Red.Replayed) << Log.str();

  std::ostringstream ReplayLog;
  EXPECT_EQ(fuzz::replayReproducer(Red.ReproJson, ReplayLog), 0)
      << ReplayLog.str();
}

TEST(FuzzReducer, OracleKilledMutantConverges) {
  runReducerDemo("add-imm-off-by-one", "oracle");
}

TEST(FuzzReducer, CheckerKilledMutantConverges) {
  runReducerDemo("jcc-drop-fallthrough", "step2");
}

TEST(FuzzReducer, ReplayRejectsMalformedInput) {
  std::ostringstream Log;
  EXPECT_EQ(fuzz::replayReproducer("/nonexistent/repro.json", Log), 2);

  std::string Bad = ::testing::TempDir() + "/bad_repro.json";
  std::ofstream(Bad) << "{\"fuzz_schema_version\": 999}";
  EXPECT_EQ(fuzz::replayReproducer(Bad, Log), 2);
}

// ------------------------------------- incremental probes vs the reference

/// fuzz::reduceBinary as it was when every reduction collected its own
/// atoms into a map and every probe re-rendered the whole image from the
/// full alive set.
namespace reference {

struct Unit {
  uint64_t Addr;
  uint8_t Len;
  uint32_t Func;
};

struct SegMap {
  struct Seg {
    uint64_t VAddr, Off, FileSz;
  };
  std::vector<Seg> Segs;

  explicit SegMap(const std::vector<uint8_t> &B) {
    auto U16 = [&](size_t O) {
      return static_cast<uint64_t>(B[O]) | (static_cast<uint64_t>(B[O + 1]) << 8);
    };
    auto U64 = [&](size_t O) {
      uint64_t V = 0;
      for (int I = 7; I >= 0; --I)
        V = (V << 8) | B[O + static_cast<size_t>(I)];
      return V;
    };
    if (B.size() < 0x40)
      return;
    uint64_t PhOff = U64(0x20);
    uint64_t PhEntSz = U16(0x36), PhNum = U16(0x38);
    for (uint64_t I = 0; I < PhNum; ++I) {
      size_t P = static_cast<size_t>(PhOff + I * PhEntSz);
      if (P + 0x38 > B.size())
        break;
      uint32_t Type = static_cast<uint32_t>(U16(P)) |
                      (static_cast<uint32_t>(U16(P + 2)) << 16);
      if (Type != 1)
        continue;
      Segs.push_back(Seg{U64(P + 0x10), U64(P + 0x8), U64(P + 0x20)});
    }
  }

  size_t offsetOf(uint64_t VAddr, uint64_t Len) const {
    for (const Seg &S : Segs)
      if (VAddr >= S.VAddr && VAddr + Len <= S.VAddr + S.FileSz)
        return static_cast<size_t>(S.Off + (VAddr - S.VAddr));
    return SIZE_MAX;
  }
};

fuzz::ReduceResult reduceBinary(const std::vector<uint8_t> &ElfBytes,
                                const hg::BinaryResult &CleanLift,
                                const fuzz::FailurePredicate &Fails,
                                size_t MaxPredicateCalls) {
  fuzz::ReduceResult Res;
  Res.Bytes = ElfBytes;
  std::map<uint64_t, Unit> ByAddr;
  for (uint32_t FI = 0; FI < CleanLift.Functions.size(); ++FI) {
    const hg::FunctionResult &F = CleanLift.Functions[FI];
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    for (const auto &[Key, V] : F.Graph.Vertices) {
      if (!V.Explored || !V.Instr.isValid())
        continue;
      auto It = ByAddr.find(Key.Rip);
      if (It == ByAddr.end())
        ByAddr.emplace(Key.Rip,
                       Unit{Key.Rip, static_cast<uint8_t>(V.Instr.Length), FI});
    }
  }
  std::vector<Unit> Units;
  for (auto &[A, U] : ByAddr)
    Units.push_back(U);

  SegMap Map(ElfBytes);
  std::vector<bool> Alive(Units.size(), true);
  auto render = [&](const std::vector<bool> &A) {
    std::vector<uint8_t> B = ElfBytes;
    for (size_t I = 0; I < Units.size(); ++I) {
      if (A[I])
        continue;
      size_t Off = Map.offsetOf(Units[I].Addr, Units[I].Len);
      if (Off != SIZE_MAX)
        std::memset(B.data() + Off, 0x90, Units[I].Len);
    }
    return B;
  };
  auto countAlive = [&](const std::vector<bool> &A) {
    return static_cast<size_t>(std::count(A.begin(), A.end(), true));
  };

  ++Res.PredicateCalls;
  Res.Reproduced = Fails(ElfBytes);
  auto finish = [&]() {
    Res.Bytes = render(Alive);
    Res.InstructionsLeft = countAlive(Alive);
    std::vector<bool> FnAlive(CleanLift.Functions.size(), false);
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I])
        FnAlive[Units[I].Func] = true;
    Res.FunctionsLeft =
        static_cast<size_t>(std::count(FnAlive.begin(), FnAlive.end(), true));
    return Res;
  };
  if (!Res.Reproduced || Units.empty())
    return finish();

  auto tryRemove = [&](const std::vector<size_t> &Idxs) {
    if (Idxs.empty() || Res.PredicateCalls >= MaxPredicateCalls)
      return false;
    std::vector<bool> Cand = Alive;
    bool Any = false;
    for (size_t I : Idxs)
      if (Cand[I]) {
        Cand[I] = false;
        Any = true;
      }
    if (!Any || countAlive(Cand) == 0)
      return false;
    ++Res.PredicateCalls;
    if (!Fails(render(Cand)))
      return false;
    Alive = std::move(Cand);
    return true;
  };

  for (uint32_t FI = 0; FI < CleanLift.Functions.size(); ++FI) {
    std::vector<size_t> Idxs;
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I] && Units[I].Func == FI)
        Idxs.push_back(I);
    tryRemove(Idxs);
  }
  size_t Sz = std::max<size_t>(1, countAlive(Alive) / 2);
  while (Res.PredicateCalls < MaxPredicateCalls) {
    std::vector<size_t> Live;
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I])
        Live.push_back(I);
    bool Any = false;
    for (size_t At = 0; At < Live.size(); At += Sz) {
      std::vector<size_t> Chunk(
          Live.begin() + static_cast<ptrdiff_t>(At),
          Live.begin() +
              static_cast<ptrdiff_t>(std::min(At + Sz, Live.size())));
      Any |= tryRemove(Chunk);
    }
    if (Sz == 1) {
      if (!Any) {
        Res.Converged = true;
        break;
      }
    } else {
      Sz = std::max<size_t>(1, Sz / 2);
    }
  }
  return finish();
}

} // namespace reference

uint64_t fnv1a(const std::vector<uint8_t> &B) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t C : B)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

/// A deterministic failure predicate: a pure function of the probe's
/// bytes and its position in the call sequence.
using Judge = std::function<bool(const std::vector<uint8_t> &, size_t Call)>;

struct ProbeLog {
  std::vector<uint64_t> Hashes; ///< one per predicate call, in order
  std::vector<bool> Verdicts;   ///< the predicate's answer to each call
  fuzz::ReduceResult Result;
};

template <typename ReduceFn>
ProbeLog runLogged(ReduceFn Reduce, const corpus::BuiltBinary &BB,
                   const hg::BinaryResult &Clean, const Judge &J,
                   size_t Budget) {
  ProbeLog L;
  fuzz::FailurePredicate P = [&](const std::vector<uint8_t> &B) {
    L.Hashes.push_back(fnv1a(B));
    L.Verdicts.push_back(J(B, L.Hashes.size() - 1));
    return L.Verdicts.back();
  };
  L.Result = Reduce(BB.ElfBytes, Clean, P, Budget);
  return L;
}

TEST(FuzzReducer, IncrementalProbesMatchReference) {
  struct Case {
    std::string Name;
    std::optional<corpus::BuiltBinary> BB;
    bool Library = false;
  };
  std::vector<Case> Cases = {
      {"callchain", corpus::callChainBinary()},
      {"branchloop", corpus::branchLoopBinary()},
      {"weirdedge", corpus::weirdEdgeBinary()},
      {"overlapping", corpus::overlappingBinary()},
      {"jumptable", corpus::jumpTableBinary()},
  };
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    corpus::GenOptions G;
    G.Seed = 0x4ed + Seed;
    G.NumFuncs = 5;
    G.TargetInstrs = 30;
    Cases.push_back({"randomlib" + std::to_string(Seed),
                     corpus::randomLibrary(G), true});
  }

  // Keep a pseudo-random two thirds of the probes; keep every probe
  // (reduce to one instruction); keep none (stop after the first call);
  // keep probes that still hold the bytes of one chosen instruction.
  auto Hashed = [](const std::vector<uint8_t> &B, size_t Call) {
    return Call == 0 || fnv1a(B) % 3 != 0;
  };
  auto All = [](const std::vector<uint8_t> &, size_t) { return true; };
  auto None = [](const std::vector<uint8_t> &, size_t Call) {
    return Call == 0;
  };

  size_t Accepted = 0, Rejected = 0;
  for (Case &C : Cases) {
    ASSERT_TRUE(C.BB.has_value()) << C.Name;
    Options O;
    O.Library = C.Library;
    Session S(C.BB->Img, O);
    const hg::BinaryResult &Clean = S.lift();

    // The chosen instruction: an explored one of at least three bytes in
    // the last function, found in a probe by its original bytes.
    std::vector<uint8_t> Needle;
    for (const auto &[K, V] : Clean.Functions.back().Graph.Vertices)
      if (V.Explored && V.Instr.isValid() && Needle.empty() &&
          K.Rip >= Clean.Functions.back().Entry + 4) {
        size_t Avail = 0;
        const uint8_t *P = C.BB->Img.bytesAt(K.Rip, Avail);
        if (P && Avail >= V.Instr.Length && V.Instr.Length >= 3)
          Needle.assign(P, P + V.Instr.Length);
      }
    auto Keeps = [&](const std::vector<uint8_t> &B, size_t Call) {
      return Call == 0 || Needle.empty() ||
             std::search(B.begin(), B.end(), Needle.begin(), Needle.end()) !=
                 B.end();
    };

    std::vector<std::pair<const char *, Judge>> Judges = {
        {"hashed", Hashed}, {"all", All}, {"none", None}, {"keeps", Keeps}};
    for (auto &[JName, J] : Judges) {
      for (size_t Budget : {size_t(400), size_t(9)}) {
        SCOPED_TRACE(C.Name + " / " + JName + " / budget " +
                     std::to_string(Budget));
        ProbeLog Want =
            runLogged(reference::reduceBinary, *C.BB, Clean, J, Budget);
        ProbeLog Got = runLogged(
            [](const std::vector<uint8_t> &B, const hg::BinaryResult &L,
               const fuzz::FailurePredicate &P, size_t N) {
              return fuzz::reduceBinary(B, fuzz::reductionAtoms(L), P, N);
            },
            *C.BB, Clean, J, Budget);
        ASSERT_EQ(Got.Hashes, Want.Hashes);
        EXPECT_EQ(Got.Result.Bytes, Want.Result.Bytes);
        EXPECT_EQ(Got.Result.PredicateCalls, Want.Result.PredicateCalls);
        EXPECT_EQ(Got.Result.FunctionsLeft, Want.Result.FunctionsLeft);
        EXPECT_EQ(Got.Result.InstructionsLeft, Want.Result.InstructionsLeft);
        EXPECT_EQ(Got.Result.Reproduced, Want.Result.Reproduced);
        EXPECT_EQ(Got.Result.Converged, Want.Result.Converged);
        for (size_t I = 1; I < Want.Verdicts.size(); ++I)
          ++(Want.Verdicts[I] ? Accepted : Rejected);
      }
    }
  }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

} // namespace
