#include "driver/Report.h"

#include "diag/Json.h"
#include "support/Format.h"

#include <cstdio>
#include <fstream>
#include <iostream>

namespace hglift::driver {

using hg::BinaryResult;
using hg::Edge;
using hg::FunctionResult;
using hglift::LiftStats;

void printHoareGraph(std::ostream &OS, const FunctionResult &F) {
  const expr::ExprContext &Ctx = F.ctx();
  OS << "function " << hexStr(F.Entry) << " ("
     << hg::liftOutcomeName(F.Outcome) << "), " << F.Graph.numStates()
     << " states, " << F.Graph.edges().size() << " edges\n";
  for (const auto &[Key, V] : F.Graph.Vertices) {
    OS << "  [" << hexStr(Key.Rip) << "] ";
    if (V.Instr.isValid())
      OS << V.Instr.str();
    OS << "\n";
    std::string P = V.State.P.str(Ctx);
    if (!P.empty())
      OS << "      P: " << P << "\n";
    std::string M = V.State.M.str(Ctx);
    if (!M.empty()) {
      // Indent the forest dump.
      OS << "      M: ";
      for (char C : M) {
        OS << C;
        if (C == '\n')
          OS << "         ";
      }
      OS << "\n";
    }
  }
  for (const Edge &E : F.Graph.edges()) {
    OS << "  " << hexStr(E.From.Rip) << " -> ";
    if (E.To.Rip == hg::RetTargetRip)
      OS << "RET";
    else if (E.To.Rip == hg::UnresolvedTargetRip)
      OS << "UNRESOLVED";
    else
      OS << hexStr(E.To.Rip);
    OS << "   (" << E.Instr.str() << ")\n";
  }
}

void printBinaryReport(std::ostream &OS, const BinaryResult &R,
                       bool Verbose) {
  OS << "binary: " << R.Name << "\n";
  OS << "outcome: " << hg::liftOutcomeName(R.Outcome);
  if (!R.FailReason.empty())
    OS << "  (" << R.FailReason << ")";
  OS << "\n";
  OS << "functions: " << R.Functions.size()
     << "  instructions: " << R.totalInstructions()
     << "  symbolic states: " << R.totalStates() << "\n";
  OS << "resolved indirections (A): " << R.totalA()
     << "  unresolved jumps (B): " << R.totalB()
     << "  unresolved calls (C): " << R.totalC() << "\n";
  OS << "lift stats: vertices " << R.Total.Vertices << "  joins "
     << R.Total.Joins << "  widenings " << R.Total.Widenings << "  steps "
     << R.Total.Steps << "  forks " << R.Total.Forks << "  solver queries "
     << R.Total.SolverQueries << "  z3 queries " << R.Total.Z3Queries
     << "\n";

  size_t Weird = 0;
  for (const FunctionResult &F : R.Functions)
    Weird += F.Graph.weirdEdges().size();
  if (Weird)
    OS << "WEIRD edges (overlapping instructions): " << Weird << "\n";

  auto Obls = R.allObligations();
  if (!Obls.empty()) {
    OS << "proof obligations / assumptions (" << Obls.size() << "):\n";
    for (const std::string &O : Obls)
      OS << "  " << O << "\n";
  }

  if (Verbose)
    for (const FunctionResult &F : R.Functions)
      printHoareGraph(OS, F);
}

namespace {

using diag::jsonEscape;

std::string jsonNum(double D) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", D);
  return Buf;
}

void writeStatsValue(std::ostream &OS, uint64_t V) { OS << V; }
void writeStatsValue(std::ostream &OS, double V) { OS << jsonNum(V); }

void writeStatsFields(std::ostream &OS, const LiftStats &S) {
  const char *Sep = "";
#define HGLIFT_STATS_JSON(Type, Member, Name)                                  \
  OS << Sep << "\"" Name "\": ";                                              \
  writeStatsValue(OS, S.Member);                                               \
  Sep = ", ";
  HGLIFT_LIFT_STATS(HGLIFT_STATS_JSON)
#undef HGLIFT_STATS_JSON
}

/// One structured diagnostic as a report-JSON object. Provenance worker
/// ordinals are deliberately omitted: they depend on scheduling, and the
/// report must be byte-identical for every thread count (they do appear in
/// the trace, which is schedule-dependent anyway).
void writeDiagJson(std::ostream &OS, const diag::Diagnostic &D,
                   const char *Indent) {
  OS << Indent << "{\"kind\": \"" << diag::diagKindName(D.Kind)
     << "\", \"message\": \"" << jsonEscape(D.Message) << "\",\n"
     << Indent << " \"provenance\": {\"origin\": \""
     << diag::componentName(D.Prov.Origin) << "\", \"function\": \""
     << hexStr(D.Prov.FunctionEntry) << "\", \"addr\": \""
     << hexStr(D.Prov.Addr) << "\", \"mnemonic\": \""
     << jsonEscape(D.Prov.Mnemonic) << "\", \"clause_id\": "
     << D.Prov.ClauseId << ", \"clause\": \"" << jsonEscape(D.Prov.ClauseText)
     << "\", \"queries\": [";
  for (size_t I = 0; I < D.Prov.QueryChain.size(); ++I)
    OS << (I ? ", " : "") << "\"" << jsonEscape(D.Prov.QueryChain[I]) << "\"";
  OS << "]}}";
}

/// One witness-search record as a report-JSON object. 64-bit values are
/// hex strings (diag::JValue numbers are doubles); the claim object always
/// carries the full field set so consumers never branch on presence.
void writeWitnessRecordJson(std::ostream &OS, const diag::WitnessRecord &W,
                            const char *Indent) {
  OS << Indent << "{\"function\": \"" << hexStr(W.Function) << "\", \"addr\": \""
     << hexStr(W.Addr) << "\", \"diag_kind\": \"" << jsonEscape(W.DiagKindName)
     << "\",\n"
     << Indent << " \"verdict\": \"" << jsonEscape(W.Verdict)
     << "\", \"reason\": \"" << jsonEscape(W.Reason) << "\", \"source\": \""
     << jsonEscape(W.Source) << "\", \"candidates\": " << W.Candidates << ",\n"
     << Indent << " \"machine_seed\": \"" << hexStr(W.MachineSeed)
     << "\", \"regs\": [";
  for (size_t I = 0; I < W.Regs.size(); ++I)
    OS << (I ? ", " : "") << "\"" << hexStr(W.Regs[I]) << "\"";
  OS << "],\n"
     << Indent << " \"phase\": \"" << jsonEscape(W.Phase)
     << "\", \"next_rip\": \"" << hexStr(W.NextRip) << "\",\n"
     << Indent << " \"claim\": {\"type\": \"" << jsonEscape(W.Claim.Type)
     << "\", \"reg\": " << W.Claim.RegNum << ", \"expect\": \""
     << hexStr(W.Claim.Expect) << "\", \"mem_addr\": \""
     << hexStr(W.Claim.MemAddr) << "\", \"mem_size\": " << W.Claim.MemSize
     << ",\n"
     << Indent << "           \"range_op\": \"" << jsonEscape(W.Claim.RangeOp)
     << "\", \"range_bound\": \"" << hexStr(W.Claim.RangeBound)
     << "\", \"range_value\": \"" << hexStr(W.Claim.RangeValue)
     << "\", \"flags_pinned\": \"" << jsonEscape(W.Claim.FlagsPinned)
     << "\", \"zf\": " << (W.Claim.ExpZF ? "true" : "false")
     << ", \"sf\": " << (W.Claim.ExpSF ? "true" : "false")
     << ", \"cf\": " << (W.Claim.ExpCF ? "true" : "false")
     << ", \"of\": " << (W.Claim.ExpOF ? "true" : "false") << "},\n"
     << Indent << " \"clause\": \"" << jsonEscape(W.Clause)
     << "\", \"violation\": \"" << jsonEscape(W.Violation)
     << "\", \"trace_len\": " << W.TraceLen << ",\n"
     << Indent << " \"functions\": " << W.Functions
     << ", \"instructions\": " << W.Instructions << ", \"sidecar_elf\": \""
     << jsonEscape(W.SidecarElf) << "\", \"sidecar_json\": \""
     << jsonEscape(W.SidecarJson)
     << "\", \"replayed\": " << (W.Replayed ? "true" : "false") << "}";
}

} // namespace

void writeStatsJson(std::ostream &OS, const BinaryResult &R) {
  OS << "{\n";
  OS << "  \"binary\": \"" << jsonEscape(R.Name) << "\",\n";
  OS << "  \"outcome\": \"" << hg::liftOutcomeName(R.Outcome) << "\",\n";
  OS << "  \"seconds\": " << jsonNum(R.Seconds) << ",\n";
  OS << "  \"totals\": {";
  writeStatsFields(OS, R.Total);
  OS << "},\n";
  OS << "  \"functions\": [\n";
  for (size_t I = 0; I < R.Functions.size(); ++I) {
    const FunctionResult &F = R.Functions[I];
    OS << "    {\"entry\": \"" << hexStr(F.Entry) << "\", \"outcome\": \""
       << hg::liftOutcomeName(F.Outcome) << "\", \"instructions\": "
       << F.numInstructions() << ", \"states\": " << F.Graph.numStates()
       << ", \"resolved_indirections\": " << F.ResolvedIndirections
       << ", \"unresolved_jumps\": " << F.UnresolvedJumps
       << ", \"unresolved_calls\": " << F.UnresolvedCalls
       << ", \"may_return\": " << (F.MayReturn ? "true" : "false") << ", ";
    writeStatsFields(OS, F.Stats);
    OS << "}" << (I + 1 < R.Functions.size() ? "," : "") << "\n";
  }
  OS << "  ]\n";
  OS << "}\n";
}

void writeReportJson(std::ostream &OS, const BinaryResult &R,
                     const exporter::CheckResult *Check,
                     const diag::WitnessSummary *Witnesses) {
  OS << "{\n";
  OS << "  \"schema_version\": " << diag::ReportSchemaVersion << ",\n";
  OS << "  \"binary\": \"" << jsonEscape(R.Name) << "\",\n";
  OS << "  \"outcome\": \"" << hg::liftOutcomeName(R.Outcome) << "\",\n";
  OS << "  \"fail_reason\": \"" << jsonEscape(R.FailReason) << "\",\n";
  OS << "  \"functions\": [\n";
  for (size_t I = 0; I < R.Functions.size(); ++I) {
    const FunctionResult &F = R.Functions[I];
    OS << "    {\"entry\": \"" << hexStr(F.Entry) << "\", \"outcome\": \""
       << hg::liftOutcomeName(F.Outcome) << "\", \"fail_reason\": \""
       << jsonEscape(F.FailReason) << "\",\n";
    OS << "     \"may_return\": " << (F.MayReturn ? "true" : "false")
       << ", \"instructions\": " << F.numInstructions()
       << ", \"states\": " << F.Graph.numStates()
       << ", \"resolved_indirections\": " << F.ResolvedIndirections
       << ", \"unresolved_jumps\": " << F.UnresolvedJumps
       << ", \"unresolved_calls\": " << F.UnresolvedCalls << ",\n";
    OS << "     \"diagnostics\": [";
    for (size_t J = 0; J < F.Diags.size(); ++J) {
      OS << (J ? ",\n" : "\n");
      writeDiagJson(OS, F.Diags[J], "      ");
    }
    OS << (F.Diags.empty() ? "" : "\n     ") << "]}"
       << (I + 1 < R.Functions.size() ? "," : "") << "\n";
  }
  OS << "  ]";
  if (Check) {
    OS << ",\n  \"check\": {\"theorems\": " << Check->Theorems
       << ", \"proven\": " << Check->Proven << ",\n   \"diagnostics\": [";
    for (size_t J = 0; J < Check->Diags.size(); ++J) {
      OS << (J ? ",\n" : "\n");
      writeDiagJson(OS, Check->Diags[J], "    ");
    }
    OS << (Check->Diags.empty() ? "" : "\n   ") << "]}";
  }
  if (Witnesses) {
    OS << ",\n  \"witnesses\": {\"witness_schema_version\": "
       << diag::WitnessSchemaVersion << ", \"budget\": " << Witnesses->Budget
       << ", \"searched\": " << Witnesses->Searched
       << ", \"confirmed\": " << Witnesses->Confirmed
       << ", \"unconfirmed\": " << Witnesses->Unconfirmed
       << ",\n   \"records\": [";
    for (size_t J = 0; J < Witnesses->Records.size(); ++J) {
      OS << (J ? ",\n" : "\n");
      writeWitnessRecordJson(OS, Witnesses->Records[J], "    ");
    }
    OS << (Witnesses->Records.empty() ? "" : "\n   ") << "]}";
  }
  OS << "\n}\n";
}

bool writeArtifact(const std::string &Path, const std::string &What,
                   const std::function<void(std::ostream &)> &Write) {
  if (Path.empty())
    return true;
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::cerr << "cannot open " << Path << " for writing\n";
    return false;
  }
  Write(Out);
  if (!What.empty())
    std::cout << "wrote " << What << " to " << Path << "\n";
  return true;
}

} // namespace hglift::driver
