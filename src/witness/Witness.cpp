//===- Witness.cpp - Incorrectness-witness search and replay --------------===//

#include "witness/Witness.h"

#include "diag/Json.h"
#include "elf/ElfReader.h"
#include "fuzz/Campaign.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "fuzz/Sidecar.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace hglift::witness {

using expr::Expr;
using fuzz::SatFailure;
using fuzz::WalkResult;
using fuzz::WalkViolation;
using sem::Machine;
using x86::NumGPRs;
using x86::Reg;
using x86::regFromNum;
using x86::regName;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Inverse of pred::relOpName, for replaying recorded range claims.
std::optional<pred::RelOp> relOpFromName(const std::string &N) {
  using RO = pred::RelOp;
  for (RO Op : {RO::Eq, RO::Ne, RO::ULt, RO::ULe, RO::UGe, RO::UGt, RO::SLt,
                RO::SLe, RO::SGe, RO::SGt})
    if (N == pred::relOpName(Op))
      return Op;
  return std::nullopt;
}

/// The concretized claim of a SatFailure. An unevaluated failure (a clause
/// whose operands the initial state cannot ground) degrades to "none": the
/// witness then asserts reachability of the violation, not the value.
diag::WitnessClaim claimFromFail(const SatFailure &F) {
  diag::WitnessClaim C;
  if (!F.Evaluated)
    return C;
  switch (F.K) {
  case SatFailure::Kind::Bottom:
    break;
  case SatFailure::Kind::Reg:
    C.Type = "reg";
    C.RegNum = F.RegNum;
    C.Expect = F.Expect;
    break;
  case SatFailure::Kind::Mem:
    C.Type = "mem";
    C.MemAddr = F.MemAddr;
    C.MemSize = F.MemSize;
    C.Expect = F.Expect;
    break;
  case SatFailure::Kind::Flags:
    C.Type = "flags";
    C.FlagsPinned = F.FlagsPinned;
    C.ExpZF = F.ExpZF;
    C.ExpSF = F.ExpSF;
    C.ExpCF = F.ExpCF;
    C.ExpOF = F.ExpOF;
    break;
  case SatFailure::Kind::Range:
    C.Type = "range";
    C.RangeOp = pred::relOpName(F.Op);
    C.RangeBound = F.Bound;
    C.RangeValue = F.Value;
    break;
  }
  return C;
}

/// Does the concrete machine state violate the recorded claim? "none"
/// claims are violated by construction (the witness is structural —
/// arrival and phase carry the evidence).
bool claimViolated(const diag::WitnessClaim &C, const Machine &M) {
  if (C.Type == "reg")
    return C.RegNum < NumGPRs && M.Regs[C.RegNum] != C.Expect;
  if (C.Type == "mem")
    return M.load(C.MemAddr, C.MemSize) != C.Expect;
  if (C.Type == "flags") {
    for (char F : C.FlagsPinned) {
      if (F == 'z' && M.ZF != C.ExpZF)
        return true;
      if (F == 's' && M.SF != C.ExpSF)
        return true;
      if (F == 'c' && M.CF != C.ExpCF)
        return true;
      if (F == 'o' && M.OF != C.ExpOF)
        return true;
    }
    return false;
  }
  if (C.Type == "range") {
    auto Op = relOpFromName(C.RangeOp);
    return !Op || !pred::relHolds(*Op, C.RangeValue, C.RangeBound);
  }
  return true;
}

/// Everything a symbolic-machinery-free replay needs: entry state, the
/// concrete violation address, and the phase/claim to re-check there.
/// This is exactly what the sidecar JSON serializes.
struct WitnessSpec {
  uint64_t Entry = 0;
  uint64_t SiteAddr = 0; ///< diagnostic site (reporting)
  uint64_t Addr = 0;     ///< concrete violation address (replay)
  std::string Phase = "reach";
  uint64_t NextRip = 0;
  uint64_t MachineSeed = 0;
  int MaxSteps = 300;
  std::array<uint64_t, NumGPRs> Regs{};
  diag::WitnessClaim Claim;
};

/// Run the spec's entry state on Img and check the claim at the recorded
/// address under the recorded phase:
///   "reach"  — arriving at Addr suffices;
///   "at"     — the claim is violated on some arrival at Addr (pre-step);
///   "after"  — stepping from Addr lands at NextRip with the claim
///              violated in the post-state;
///   "return" — stepping from Addr pops the sentinel return address.
/// On success *TraceOut (if given) receives the instruction trace up to
/// the witnessing point, which the reducer uses as its equality oracle.
bool specReproduces(const elf::BinaryImage &Img, const WitnessSpec &Spec,
                    std::vector<uint64_t> *TraceOut = nullptr) {
  Machine M(Img, Spec.MachineSeed);
  M.setupCall(Spec.Entry);
  for (unsigned RI = 0; RI < NumGPRs; ++RI)
    if (regFromNum(RI) != Reg::RSP)
      M.setReg(regFromNum(RI), Spec.Regs[RI]);

  auto witnessed = [&]() {
    if (TraceOut)
      *TraceOut = M.trace();
    return true;
  };

  for (int Step = 0; Step < Spec.MaxSteps; ++Step) {
    bool AtSite = M.Rip == Spec.Addr;
    if (AtSite && Spec.Phase == "reach")
      return witnessed();
    if (AtSite && Spec.Phase == "at" && claimViolated(Spec.Claim, M))
      return witnessed();
    Machine::Status St = M.step();
    if (AtSite && Spec.Phase == "return" && St == Machine::Status::Returned)
      return witnessed();
    if (AtSite && Spec.Phase == "after" && St == Machine::Status::Running &&
        M.Rip == Spec.NextRip && claimViolated(Spec.Claim, M))
      return witnessed();
    if (St != Machine::Status::Running)
      return false;
  }
  return false;
}

/// One candidate initial state with its provenance tier.
struct Candidate {
  const char *Source;
  std::array<uint64_t, NumGPRs> Regs{};
  uint64_t MachineSeed = 0;
};

/// Collect every InitReg variable id mentioned inside a Deref address of E.
void collectDerefVarIds(const Expr *E, std::set<uint32_t> &Out, bool InAddr) {
  if (E->isVar()) {
    if (InAddr)
      Out.insert(E->varId());
    return;
  }
  if (E->isDeref()) {
    collectDerefVarIds(E->derefAddr(), Out, /*InAddr=*/true);
    return;
  }
  for (const Expr *O : E->operands())
    collectDerefVarIds(O, Out, InAddr);
}

/// The vertices whose invariants seed the clause-endpoints tier: the
/// explored vertices at the site plus their direct graph successors (a
/// Step-2 failure at an edge's From instruction typically blames a clause
/// of the *To* vertex, and the concrete violation lands there too).
std::vector<const hg::Vertex *> seedVertices(const hg::FunctionResult &F,
                                             uint64_t SiteAddr) {
  std::vector<const hg::Vertex *> Out = fuzz::verticesAt(F, SiteAddr);
  std::set<uint64_t> SuccRips;
  for (const hg::Edge &E : F.Graph.edges())
    if (E.From.Rip == SiteAddr && E.To.Rip != SiteAddr)
      SuccRips.insert(E.To.Rip);
  for (uint64_t Rip : SuccRips)
    for (const hg::Vertex *V : fuzz::verticesAt(F, Rip))
      Out.push_back(V);
  if (Out.empty())
    Out = fuzz::verticesAt(F, F.Entry);
  return Out;
}

/// Build the deterministic candidate stream for one site, capped at
/// Budget. Tier order: "base" (one small-value state), "clause-endpoints"
/// (single-register deviations to pred::Pred::witnessSeeds values),
/// "alloc-class" (segment representatives for pointer-shaped registers),
/// "random" (the oracle's own entry-state distribution) to fill.
std::vector<Candidate> makeCandidates(const elf::BinaryImage &Img,
                                      const hg::FunctionResult &F,
                                      uint64_t SiteAddr, uint64_t SiteSeed,
                                      unsigned Budget) {
  std::vector<Candidate> Out;
  if (!Budget)
    return Out;

  // Tier "base": deterministic small values, the state every deviation
  // tier perturbs one register of.
  Candidate Base;
  Base.Source = "base";
  Base.MachineSeed = SiteSeed;
  {
    Rng R(SiteSeed);
    for (unsigned RI = 0; RI < NumGPRs; ++RI)
      if (regFromNum(RI) != Reg::RSP)
        Base.Regs[RI] = R.below(1000);
  }
  Out.push_back(Base);

  std::vector<const hg::Vertex *> Vs = seedVertices(F, SiteAddr);

  // Tier "clause-endpoints": per register, the boundary-straddling values
  // of its init variable under every seed vertex's invariant.
  expr::ExprContext &Ctx = F.ctx();
  for (unsigned RI = 0; RI < NumGPRs && Out.size() < Budget; ++RI) {
    Reg R = regFromNum(RI);
    if (R == Reg::RSP)
      continue;
    const Expr *Var =
        Ctx.mkVar(expr::VarClass::InitReg, regName(R) + "0", 64);
    std::vector<uint64_t> Seeds;
    for (const hg::Vertex *V : Vs) {
      std::vector<uint64_t> S = V->State.P.witnessSeeds(Var);
      Seeds.insert(Seeds.end(), S.begin(), S.end());
    }
    std::sort(Seeds.begin(), Seeds.end());
    Seeds.erase(std::unique(Seeds.begin(), Seeds.end()), Seeds.end());
    for (uint64_t SV : Seeds) {
      if (Out.size() >= Budget)
        break;
      if (SV == Base.Regs[RI])
        continue;
      Candidate C = Base;
      C.Source = "clause-endpoints";
      C.Regs[RI] = SV;
      Out.push_back(C);
    }
  }

  // Tier "alloc-class": registers whose init variable addresses memory in
  // some seed invariant get data-segment representatives (a pointer into
  // each non-executable segment, plus a near-null page).
  {
    std::set<uint32_t> AddrVars;
    for (const hg::Vertex *V : Vs) {
      for (const pred::MemCell &C : V->State.P.cells())
        collectDerefVarIds(C.Addr, AddrVars, /*InAddr=*/true);
      for (unsigned RI = 0; RI < NumGPRs; ++RI)
        if (const Expr *E = V->State.P.reg64(regFromNum(RI)))
          collectDerefVarIds(E, AddrVars, /*InAddr=*/false);
      for (const pred::RangeClause &C : V->State.P.ranges())
        collectDerefVarIds(C.E, AddrVars, /*InAddr=*/false);
    }
    std::vector<uint64_t> Reprs;
    for (const elf::Segment &S : Img.Segments)
      if (!S.Exec)
        Reprs.push_back(S.VAddr + 8);
    Reprs.push_back(0x1000);
    for (unsigned RI = 0; RI < NumGPRs && Out.size() < Budget; ++RI) {
      Reg R = regFromNum(RI);
      if (R == Reg::RSP)
        continue;
      const Expr *Var =
          Ctx.mkVar(expr::VarClass::InitReg, regName(R) + "0", 64);
      if (!AddrVars.count(Var->varId()))
        continue;
      for (uint64_t RV : Reprs) {
        if (Out.size() >= Budget)
          break;
        Candidate C = Base;
        C.Source = "alloc-class";
        C.Regs[RI] = RV;
        Out.push_back(C);
      }
    }
  }

  // Tier "random": the fallback fill, drawn with the oracle's own
  // entry-state distribution (walkOnce order: machine seed first, then
  // per register a 1-in-3 small value, else full random).
  Rng R2(SiteSeed ^ 0x9e3779b97f4a7c15ull);
  while (Out.size() < Budget) {
    Candidate C;
    C.Source = "random";
    C.MachineSeed = R2.next();
    for (unsigned RI = 0; RI < NumGPRs; ++RI) {
      if (regFromNum(RI) == Reg::RSP)
        continue;
      C.Regs[RI] = R2.chance(1, 3) ? R2.below(1000) : R2.next();
    }
    Out.push_back(C);
  }
  return Out;
}

std::string jhex(uint64_t V) { return "\"" + hexStr(V) + "\""; }

std::string basenameOf(const std::string &Path) {
  size_t Pos = Path.find_last_of('/');
  return Pos == std::string::npos ? Path : Path.substr(Pos + 1);
}

/// Render the sidecar JSON half of a witness pair.
std::string renderWitnessJson(const WitnessSpec &Spec,
                              const diag::WitnessRecord &Rec,
                              const std::string &ElfBasename) {
  std::ostringstream J;
  J << "{\n";
  J << "  \"witness_schema_version\": " << diag::WitnessSchemaVersion
    << ",\n";
  J << "  \"kind\": \"hglift-witness\",\n";
  J << "  \"elf\": \"" << diag::jsonEscape(ElfBasename) << "\",\n";
  J << "  \"function\": " << jhex(Spec.Entry) << ",\n";
  J << "  \"site\": " << jhex(Spec.SiteAddr) << ",\n";
  J << "  \"addr\": " << jhex(Spec.Addr) << ",\n";
  J << "  \"diag_kind\": \"" << diag::jsonEscape(Rec.DiagKindName) << "\",\n";
  J << "  \"phase\": \"" << Spec.Phase << "\",\n";
  J << "  \"next_rip\": " << jhex(Spec.NextRip) << ",\n";
  J << "  \"machine_seed\": " << jhex(Spec.MachineSeed) << ",\n";
  J << "  \"max_steps\": " << Spec.MaxSteps << ",\n";
  J << "  \"regs\": [";
  for (unsigned RI = 0; RI < NumGPRs; ++RI)
    J << (RI ? ", " : "") << jhex(Spec.Regs[RI]);
  J << "],\n";
  const diag::WitnessClaim &C = Spec.Claim;
  J << "  \"claim\": {\"type\": \"" << diag::jsonEscape(C.Type)
    << "\", \"reg\": " << C.RegNum << ", \"expect\": " << jhex(C.Expect)
    << ", \"mem_addr\": " << jhex(C.MemAddr)
    << ", \"mem_size\": " << C.MemSize << ", \"range_op\": \""
    << diag::jsonEscape(C.RangeOp)
    << "\", \"range_bound\": " << jhex(C.RangeBound)
    << ", \"range_value\": " << jhex(C.RangeValue) << ", \"flags_pinned\": \""
    << diag::jsonEscape(C.FlagsPinned)
    << "\", \"zf\": " << (C.ExpZF ? "true" : "false")
    << ", \"sf\": " << (C.ExpSF ? "true" : "false")
    << ", \"cf\": " << (C.ExpCF ? "true" : "false")
    << ", \"of\": " << (C.ExpOF ? "true" : "false") << "},\n";
  J << "  \"clause\": \"" << diag::jsonEscape(Rec.Clause) << "\",\n";
  J << "  \"violation\": \"" << diag::jsonEscape(Rec.Violation) << "\",\n";
  J << "  \"trace_len\": " << Rec.TraceLen << ",\n";
  J << "  \"functions\": " << Rec.Functions << ",\n";
  J << "  \"instructions\": " << Rec.Instructions << "\n";
  J << "}\n";
  return J.str();
}

uint64_t jnum64(const diag::JValue &Doc, const std::string &Key) {
  const diag::JValue *V = Doc.get(Key);
  if (!V)
    return 0;
  if (V->isStr())
    return std::strtoull(V->Str.c_str(), nullptr, 0);
  return static_cast<uint64_t>(V->Num);
}

/// probeSite with the binary's reduction atoms collected on the first
/// confirmation and kept in Atoms, so searchBinary collects them at most
/// once per binary.
diag::WitnessRecord probe(const elf::BinaryImage &Img,
                          const hg::BinaryResult &Clean,
                          const hg::FunctionResult &F, uint64_t SiteAddr,
                          diag::DiagKind Kind, const WitnessOptions &Opts,
                          const std::vector<uint8_t> *ElfBytes,
                          std::optional<fuzz::ReductionAtoms> &Atoms) {
  diag::WitnessRecord Rec;
  Rec.Function = F.Entry;
  Rec.Addr = SiteAddr;
  Rec.DiagKindName = diag::diagKindName(Kind);

  if (F.Outcome != hg::LiftOutcome::Lifted || !F.Arena) {
    Rec.Reason = "function-not-lifted";
    return Rec;
  }
  if (SiteAddr == 0) {
    // A function-granular diagnostic (no instruction in scope): there is
    // no site to drive a concrete run to.
    Rec.Reason = "no-instruction-site";
    return Rec;
  }

  bool WantReach = Kind == diag::DiagKind::UnsoundnessAnnotation;
  uint64_t SiteSeed =
      Opts.Seed ^ fnv1a(hexStr(F.Entry) + ":" + hexStr(SiteAddr));
  std::vector<Candidate> Cands =
      makeCandidates(Img, F, SiteAddr, SiteSeed, Opts.Budget);

  WitnessSpec Spec;
  bool Hit = false;
  for (const Candidate &C : Cands) {
    ++Rec.Candidates;
    // Every verdict below needs the site's rip to come up in the walk, so
    // the admission walk runs only for candidates whose bare run arrives.
    if (!fuzz::arrivesAt(Img, F, C.Regs, C.MachineSeed, SiteAddr,
                         Opts.MaxSteps))
      continue;
    WalkResult WR = fuzz::walkFrom(Img, F, C.Regs, C.MachineSeed,
                                   Opts.MaxSteps);
    if (WantReach) {
      if (std::find(WR.Trace.begin(), WR.Trace.end(), SiteAddr) ==
          WR.Trace.end())
        continue;
      Spec.Phase = "reach";
      Spec.Addr = SiteAddr;
    } else {
      if (!WR.Violated)
        continue;
      bool Matches =
          WR.V.Addr == SiteAddr ||
          (WR.V.K == WalkViolation::Kind::NoAdmittingVertex &&
           WR.V.PrevRip == SiteAddr && WR.V.PrevRip != 0);
      if (!Matches)
        continue;
      Spec.Addr = WR.V.Addr;
      Spec.NextRip = WR.V.NextRip;
      switch (WR.V.K) {
      case WalkViolation::Kind::NoAdmittingVertex:
        Spec.Phase = "at";
        break;
      case WalkViolation::Kind::SuccessorNotAdmitted:
        Spec.Phase = "after";
        break;
      case WalkViolation::Kind::MissingRetEdge:
        Spec.Phase = "return";
        break;
      }
      if (WR.V.HasFail) {
        Spec.Claim = claimFromFail(WR.V.Fail);
        Rec.Clause = WR.V.Fail.Clause;
      }
      Rec.Violation = WR.V.Message;
    }
    Spec.Entry = F.Entry;
    Spec.SiteAddr = SiteAddr;
    Spec.MachineSeed = C.MachineSeed;
    Spec.MaxSteps = Opts.MaxSteps;
    Spec.Regs = C.Regs;
    Rec.Source = C.Source;
    Rec.MachineSeed = C.MachineSeed;
    Rec.Regs.assign(C.Regs.begin(), C.Regs.end());
    Rec.Phase = Spec.Phase;
    Rec.NextRip = Spec.NextRip;
    Rec.Claim = Spec.Claim;
    Hit = true;
    break;
  }

  if (!Hit) {
    Rec.Reason = WantReach ? "site-not-reached" : "budget-exhausted";
    return Rec;
  }

  // The search confirmed via the symbolic walk; the sidecar replays via
  // the concretized spec alone. Gate the verdict on the spec reproducing
  // in-memory, so a written witness can never be weaker than its verdict.
  std::vector<uint64_t> RefTrace;
  if (!specReproduces(Img, Spec, &RefTrace)) {
    Rec.Reason = "replay-encoding-mismatch";
    return Rec;
  }
  Rec.Verdict = "confirmed";
  Rec.TraceLen = RefTrace.size();

  if (!ElfBytes)
    return Rec;

  // Shrink: NOP-patch every instruction not needed to reproduce the exact
  // witnessed trace. The predicate is Machine-only, so this is cheap.
  auto StillFails = [&](const std::vector<uint8_t> &Bytes) {
    std::optional<elf::BinaryImage> Img2 = elf::readElf(Bytes, "witness");
    if (!Img2)
      return false;
    std::vector<uint64_t> T;
    return specReproduces(*Img2, Spec, &T) && T == RefTrace;
  };
  if (!Atoms)
    Atoms = fuzz::reductionAtoms(Clean);
  fuzz::ReduceResult RR = fuzz::reduceBinary(*ElfBytes, *Atoms, StillFails);
  Rec.Functions = RR.FunctionsLeft;
  Rec.Instructions = RR.InstructionsLeft;

  if (Opts.Dir.empty())
    return Rec;
  {
    std::error_code EC;
    std::filesystem::create_directories(Opts.Dir, EC);
  }
  std::string Tag = std::string("witness_") + hexStr(F.Entry) + "_" +
                    hexStr(SiteAddr) + (WantReach ? "_reach" : "");
  std::string Stem = fuzz::sidecarStem(Opts.Dir, Tag);
  const std::vector<uint8_t> &OutBytes = RR.Reproduced ? RR.Bytes : *ElfBytes;
  if (!fuzz::writeSidecarElf(Stem, OutBytes))
    return Rec;
  std::string ElfPath = fuzz::sidecarElfPath(Stem);
  std::string JsonPath = fuzz::sidecarJsonPath(Stem);
  if (!fuzz::writeSidecarJson(
          Stem, renderWitnessJson(Spec, Rec, basenameOf(ElfPath))))
    return Rec;
  Rec.SidecarElf = basenameOf(ElfPath);
  Rec.SidecarJson = basenameOf(JsonPath);
  std::ostringstream Quiet;
  Rec.Replayed = replayWitness(JsonPath, Quiet) == 0;
  return Rec;
}

} // namespace

diag::WitnessRecord probeSite(const elf::BinaryImage &Img,
                              const hg::BinaryResult &Clean,
                              const hg::FunctionResult &F, uint64_t SiteAddr,
                              diag::DiagKind Kind, const WitnessOptions &Opts,
                              const std::vector<uint8_t> *ElfBytes) {
  std::optional<fuzz::ReductionAtoms> Atoms;
  return probe(Img, Clean, F, SiteAddr, Kind, Opts, ElfBytes, Atoms);
}

diag::WitnessSummary searchBinary(const elf::BinaryImage &Img,
                                  const hg::BinaryResult &R,
                                  const exporter::CheckResult *Check,
                                  const WitnessOptions &Opts,
                                  const std::vector<uint8_t> *ElfBytes) {
  diag::WitnessSummary Sum;
  Sum.Budget = Opts.Budget;

  struct Site {
    uint64_t Fn = 0, Addr = 0;
    diag::DiagKind Kind = diag::DiagKind::VerificationError;
  };
  std::vector<Site> Sites;
  std::set<std::tuple<uint64_t, uint64_t, uint8_t>> Seen;
  auto add = [&](uint64_t Fn, uint64_t Addr, diag::DiagKind K) {
    if (!Seen.insert({Fn, Addr, static_cast<uint8_t>(K)}).second)
      return;
    Sites.push_back(Site{Fn, Addr, K});
  };
  for (const hg::FunctionResult &F : R.Functions)
    for (const diag::Diagnostic &D : F.Diags) {
      if (D.Kind == diag::DiagKind::ProofObligation)
        continue;
      add(D.Prov.FunctionEntry ? D.Prov.FunctionEntry : F.Entry, D.Prov.Addr,
          D.Kind);
    }
  if (Check)
    for (const diag::Diagnostic &D : Check->Diags) {
      if (D.Kind != diag::DiagKind::VerificationError)
        continue;
      add(D.Prov.FunctionEntry, D.Prov.Addr, D.Kind);
    }

  std::optional<fuzz::ReductionAtoms> Atoms;
  for (const Site &S : Sites) {
    const hg::FunctionResult *F = nullptr;
    for (const hg::FunctionResult &Fn : R.Functions)
      if (Fn.Entry == S.Fn) {
        F = &Fn;
        break;
      }
    diag::WitnessRecord Rec;
    if (!F) {
      Rec.Function = S.Fn;
      Rec.Addr = S.Addr;
      Rec.DiagKindName = diag::diagKindName(S.Kind);
      Rec.Reason = "function-not-lifted";
    } else {
      Rec = probe(Img, R, *F, S.Addr, S.Kind, Opts, ElfBytes, Atoms);
    }
    ++Sum.Searched;
    if (Rec.Verdict == "confirmed")
      ++Sum.Confirmed;
    else
      ++Sum.Unconfirmed;
    Sum.Records.push_back(std::move(Rec));
  }
  return Sum;
}

const diag::WitnessSummary &
attachWitnesses(Session &S, const std::vector<uint8_t> *ElfBytes) {
  WitnessOptions WO;
  WO.Dir = S.options().Witness.Dir;
  WO.Budget = S.options().Witness.Budget;
  S.setWitnesses(
      searchBinary(S.image(), S.lift(), S.checkResult(), WO, ElfBytes));
  return *S.witnesses();
}

int replayWitness(const std::string &JsonPath, std::ostream &Log) {
  std::ifstream In(JsonPath);
  if (!In) {
    Log << "replay: cannot open " << JsonPath << "\n";
    return 2;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<diag::JValue> Doc = diag::parseJson(SS.str());
  if (!Doc || !Doc->isObj()) {
    Log << "replay: malformed witness JSON\n";
    return 2;
  }
  if (static_cast<unsigned>(Doc->num("witness_schema_version")) !=
      diag::WitnessSchemaVersion) {
    Log << "replay: unsupported witness_schema_version\n";
    return 2;
  }
  if (Doc->str("kind") != "hglift-witness") {
    Log << "replay: not a witness sidecar\n";
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
  std::optional<elf::BinaryImage> Img = elf::readElfFile(Elf);
  if (!Img) {
    Log << "replay: cannot read " << Elf << "\n";
    return 2;
  }

  WitnessSpec Spec;
  Spec.Entry = jnum64(*Doc, "function");
  Spec.SiteAddr = jnum64(*Doc, "site");
  Spec.Addr = jnum64(*Doc, "addr");
  Spec.Phase = Doc->str("phase", "reach");
  Spec.NextRip = jnum64(*Doc, "next_rip");
  Spec.MachineSeed = jnum64(*Doc, "machine_seed");
  Spec.MaxSteps = static_cast<int>(Doc->num("max_steps", 300));
  const diag::JValue *Regs = Doc->get("regs");
  if (!Regs || !Regs->isArr() || Regs->Arr.size() != NumGPRs) {
    Log << "replay: malformed regs array\n";
    return 2;
  }
  for (unsigned RI = 0; RI < NumGPRs; ++RI) {
    const diag::JValue &V = Regs->Arr[RI];
    Spec.Regs[RI] =
        V.isStr() ? std::strtoull(V.Str.c_str(), nullptr, 0)
                  : static_cast<uint64_t>(V.Num);
  }
  if (const diag::JValue *C = Doc->get("claim")) {
    Spec.Claim.Type = C->str("type", "none");
    Spec.Claim.RegNum = static_cast<unsigned>(C->num("reg"));
    Spec.Claim.Expect = jnum64(*C, "expect");
    Spec.Claim.MemAddr = jnum64(*C, "mem_addr");
    Spec.Claim.MemSize = static_cast<uint32_t>(C->num("mem_size"));
    Spec.Claim.RangeOp = C->str("range_op");
    Spec.Claim.RangeBound = jnum64(*C, "range_bound");
    Spec.Claim.RangeValue = jnum64(*C, "range_value");
    Spec.Claim.FlagsPinned = C->str("flags_pinned");
    auto JBool = [&](const char *K) {
      const diag::JValue *B = C->get(K);
      return B && B->B;
    };
    Spec.Claim.ExpZF = JBool("zf");
    Spec.Claim.ExpSF = JBool("sf");
    Spec.Claim.ExpCF = JBool("cf");
    Spec.Claim.ExpOF = JBool("of");
  }

  std::vector<uint64_t> Trace;
  if (!specReproduces(*Img, Spec, &Trace)) {
    Log << "replay: witness did not reproduce (phase " << Spec.Phase
        << " at " << hexStr(Spec.Addr) << ")\n";
    return 1;
  }
  Log << "replay: witness reproduced: phase " << Spec.Phase << " at "
      << hexStr(Spec.Addr) << " after " << Trace.size()
      << " instructions\n";
  return 0;
}

int replayAny(const std::string &JsonPath, std::ostream &Log) {
  std::ifstream In(JsonPath);
  if (!In) {
    Log << "replay: cannot open " << JsonPath << "\n";
    return 2;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<diag::JValue> Doc = diag::parseJson(SS.str());
  if (!Doc || !Doc->isObj()) {
    Log << "replay: malformed reproducer JSON\n";
    return 2;
  }
  std::string Kind = Doc->str("kind");
  if (Kind == "hglift-witness")
    return replayWitness(JsonPath, Log);
  if (Kind == "hglift-fuzz-reproducer")
    return fuzz::replayReproducer(JsonPath, Log);
  Log << "replay: unknown reproducer kind \"" << Kind << "\"\n";
  return 2;
}

} // namespace hglift::witness
