//===- Reducer.cpp - Delta-debugging reducer for failing binaries ---------===//

#include "fuzz/Reducer.h"

#include <algorithm>
#include <cstring>

namespace hglift::fuzz {

namespace {

/// Minimal ELF64 program-header walk: vaddr -> file offset for PT_LOAD
/// segments. The corpus emits well-formed little-endian ELF64, which is
/// all the reducer ever patches.
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
      if (Type != 1) // PT_LOAD
        continue;
      Segs.push_back(Seg{U64(P + 0x10), U64(P + 0x8), U64(P + 0x20)});
    }
  }

  /// File offset of VAddr, or SIZE_MAX when not file-backed.
  size_t offsetOf(uint64_t VAddr, uint64_t Len) const {
    for (const Seg &S : Segs)
      if (VAddr >= S.VAddr && VAddr + Len <= S.VAddr + S.FileSz)
        return static_cast<size_t>(S.Off + (VAddr - S.VAddr));
    return SIZE_MAX;
  }
};

} // namespace

ReductionAtoms reductionAtoms(const hg::BinaryResult &CleanLift) {
  using Unit = ReductionAtoms::Unit;
  ReductionAtoms Out;
  Out.NumFunctions = CleanLift.Functions.size();
  for (uint32_t FI = 0; FI < CleanLift.Functions.size(); ++FI) {
    const hg::FunctionResult &F = CleanLift.Functions[FI];
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    for (const auto &[Key, V] : F.Graph.Vertices)
      if (V.Explored && V.Instr.isValid())
        Out.Units.push_back(
            Unit{Key.Rip, static_cast<uint8_t>(V.Instr.Length), FI});
  }
  // Address order; the stable sort keeps the first vertex (of the first
  // function) that claims an address.
  std::stable_sort(Out.Units.begin(), Out.Units.end(),
                   [](const Unit &A, const Unit &B) { return A.Addr < B.Addr; });
  Out.Units.erase(std::unique(Out.Units.begin(), Out.Units.end(),
                              [](const Unit &A, const Unit &B) {
                                return A.Addr == B.Addr;
                              }),
                  Out.Units.end());
  return Out;
}

ReduceResult reduceBinary(const std::vector<uint8_t> &ElfBytes,
                          const ReductionAtoms &Atoms,
                          const FailurePredicate &Fails,
                          size_t MaxPredicateCalls) {
  ReduceResult Res;
  Res.Bytes = ElfBytes;
  const std::vector<ReductionAtoms::Unit> &Units = Atoms.Units;

  SegMap Map(ElfBytes);
  std::vector<bool> Alive(Units.size(), true);
  size_t NumAlive = Units.size();

  // Res.Bytes always holds ElfBytes with every dead unit NOP-patched. NOP
  // patches are idempotent and commute, so a probe is that buffer plus the
  // patches of the units it removes.
  auto nop = [&](std::vector<uint8_t> &B, size_t I) {
    size_t Off = Map.offsetOf(Units[I].Addr, Units[I].Len);
    if (Off != SIZE_MAX)
      std::memset(B.data() + Off, 0x90, Units[I].Len);
  };

  // Does the unreduced input fail at all?
  ++Res.PredicateCalls;
  Res.Reproduced = Fails(ElfBytes);
  auto finish = [&]() {
    Res.InstructionsLeft = NumAlive;
    std::vector<bool> FnAlive(Atoms.NumFunctions, false);
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I])
        FnAlive[Units[I].Func] = true;
    Res.FunctionsLeft =
        static_cast<size_t>(std::count(FnAlive.begin(), FnAlive.end(), true));
    return Res;
  };
  if (!Res.Reproduced || Units.empty())
    return finish();

  // Try removing the units named by Idxs (distinct indices); keep the
  // removal if the failure still reproduces.
  auto tryRemove = [&](const std::vector<size_t> &Idxs) {
    if (Idxs.empty() || Res.PredicateCalls >= MaxPredicateCalls)
      return false;
    size_t Removed = 0;
    for (size_t I : Idxs)
      Removed += Alive[I];
    if (!Removed || Removed == NumAlive)
      return false;
    std::vector<uint8_t> Probe = Res.Bytes;
    for (size_t I : Idxs)
      if (Alive[I])
        nop(Probe, I);
    ++Res.PredicateCalls;
    if (!Fails(Probe))
      return false;
    for (size_t I : Idxs)
      Alive[I] = false;
    NumAlive -= Removed;
    Res.Bytes = std::move(Probe);
    return true;
  };

  // Level 1: whole functions, in index order.
  for (uint32_t FI = 0; FI < Atoms.NumFunctions; ++FI) {
    std::vector<size_t> Idxs;
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I] && Units[I].Func == FI)
        Idxs.push_back(I);
    tryRemove(Idxs);
  }

  // Levels 2..n: halving chunks of the surviving instruction list, down
  // to single instructions, then single-instruction passes to a fixpoint.
  size_t Sz = std::max<size_t>(1, NumAlive / 2);
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

} // namespace hglift::fuzz
