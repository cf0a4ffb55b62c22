#include "export/Summary.h"

#include "support/Format.h"

#include <sstream>

namespace hglift::exporter {

using hg::Edge;
using hg::FunctionResult;

namespace {

std::string edgeStr(const Edge &E) {
  std::string To;
  if (E.To.Rip == hg::RetTargetRip)
    To = "ret";
  else if (E.To.Rip == hg::UnresolvedTargetRip)
    // Distinguish the two annotation kinds (Table 1 columns B and C):
    // an unresolved jump abandons the path, an unresolved call continues
    // as an unknown external call.
    To = E.Kind == sem::CtrlKind::UnresCall ? "unresolved-call"
                                            : "unresolved-jump";
  else
    To = hexStr(E.To.Rip);
  return hexStr(E.From.Rip) + " -> " + To;
}

} // namespace

HgSummary summarize(const hg::BinaryResult &R) {
  HgSummary S;
  S.Name = R.Name;
  S.Outcome = hg::liftOutcomeName(R.Outcome);
  for (const FunctionResult &F : R.Functions) {
    FunctionSummary FS;
    FS.Entry = F.Entry;
    FS.Outcome = hg::liftOutcomeName(F.Outcome);
    FS.MayReturn = F.MayReturn;
    FS.A = F.ResolvedIndirections;
    FS.B = F.UnresolvedJumps;
    FS.C = F.UnresolvedCalls;
    for (const auto &[Key, V] : F.Graph.Vertices)
      if (V.Explored && V.Instr.isValid())
        FS.Instrs[Key.Rip] = V.Instr.str();
    for (const Edge &E : F.Graph.edges())
      FS.Edges.insert(edgeStr(E));
    for (const std::string &O : F.Obligations)
      FS.Obligations.insert(O);
    S.Functions[F.Entry] = std::move(FS);
  }
  return S;
}

std::string writeSummary(const HgSummary &S) {
  std::string Out;
  Out += "hg-summary 1\n";
  Out += "binary " + (S.Name.empty() ? std::string("?") : S.Name) + "\n";
  Out += "outcome " + S.Outcome + "\n";
  for (const auto &[Entry, F] : S.Functions) {
    Out += "function " + hexStr(Entry) + " " + F.Outcome +
           " mayreturn " + (F.MayReturn ? "1" : "0") + " A " +
           std::to_string(F.A) + " B " + std::to_string(F.B) + " C " +
           std::to_string(F.C) + "\n";
    for (const auto &[Addr, Text] : F.Instrs)
      Out += "  instr " + hexStr(Addr) + " | " + Text + "\n";
    for (const std::string &E : F.Edges)
      Out += "  edge " + E + "\n";
    for (const std::string &O : F.Obligations)
      Out += "  obligation " + O + "\n";
  }
  Out += "end\n";
  return Out;
}

std::optional<HgSummary> parseSummary(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "hg-summary 1")
    return std::nullopt;

  HgSummary S;
  FunctionSummary *Cur = nullptr;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "binary") {
      LS >> S.Name;
    } else if (Tag == "outcome") {
      LS >> S.Outcome;
    } else if (Tag == "function") {
      std::string Addr, Outcome, Kw;
      unsigned A, B, C;
      int MayRet;
      LS >> Addr >> Outcome >> Kw >> MayRet;
      std::string KA, KB, KC;
      LS >> KA >> A >> KB >> B >> KC >> C;
      if (!LS || Kw != "mayreturn")
        return std::nullopt;
      FunctionSummary FS;
      FS.Entry = std::stoull(Addr, nullptr, 16);
      FS.Outcome = Outcome;
      FS.MayReturn = MayRet != 0;
      FS.A = A;
      FS.B = B;
      FS.C = C;
      Cur = &(S.Functions[FS.Entry] = std::move(FS));
    } else if (Tag == "instr") {
      if (!Cur)
        return std::nullopt;
      std::string Addr, Pipe;
      LS >> Addr >> Pipe;
      if (Pipe != "|")
        return std::nullopt;
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest[0] == ' ')
        Rest.erase(0, 1);
      Cur->Instrs[std::stoull(Addr, nullptr, 16)] = Rest;
    } else if (Tag == "edge") {
      if (!Cur)
        return std::nullopt;
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest[0] == ' ')
        Rest.erase(0, 1);
      Cur->Edges.insert(Rest);
    } else if (Tag == "obligation") {
      if (!Cur)
        return std::nullopt;
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest[0] == ' ')
        Rest.erase(0, 1);
      Cur->Obligations.insert(Rest);
    } else if (!Tag.empty()) {
      return std::nullopt;
    }
  }
  if (!SawEnd)
    return std::nullopt;
  return S;
}

namespace {

template <typename T, typename Fn>
void diffSets(const std::set<T> &Old, const std::set<T> &New,
              const Fn &Emit) {
  for (const T &X : New)
    if (!Old.count(X))
      Emit("+", X);
  for (const T &X : Old)
    if (!New.count(X))
      Emit("-", X);
}

} // namespace

SummaryDiff diffSummaries(const HgSummary &Old, const HgSummary &New) {
  SummaryDiff D;
  if (Old.Outcome != New.Outcome)
    D.Lines.push_back("outcome: " + Old.Outcome + " -> " + New.Outcome);

  std::set<uint64_t> Entries;
  for (const auto &[E, F] : Old.Functions)
    Entries.insert(E);
  for (const auto &[E, F] : New.Functions)
    Entries.insert(E);

  for (uint64_t E : Entries) {
    auto OI = Old.Functions.find(E);
    auto NI = New.Functions.find(E);
    std::string Tag = "function " + hexStr(E) + ": ";
    if (OI == Old.Functions.end()) {
      D.Lines.push_back(Tag + "added");
      continue;
    }
    if (NI == New.Functions.end()) {
      D.Lines.push_back(Tag + "removed");
      continue;
    }
    const FunctionSummary &OF = OI->second, &NF = NI->second;
    if (OF.Outcome != NF.Outcome)
      D.Lines.push_back(Tag + "outcome " + OF.Outcome + " -> " + NF.Outcome);
    diffSets(OF.Edges, NF.Edges, [&](const char *Sign, const std::string &X) {
      D.Lines.push_back(Tag + Sign + " edge " + X);
    });
    diffSets(OF.Obligations, NF.Obligations,
             [&](const char *Sign, const std::string &X) {
               D.Lines.push_back(Tag + Sign + " obligation " + X);
             });
    // Changed instructions at shared addresses.
    for (const auto &[Addr, Text] : NF.Instrs) {
      auto It = OF.Instrs.find(Addr);
      if (It != OF.Instrs.end() && It->second != Text)
        D.Lines.push_back(Tag + "instr @" + hexStr(Addr) + ": \"" +
                          It->second + "\" -> \"" + Text + "\"");
    }
  }
  return D;
}

} // namespace hglift::exporter
