//===- Flags.cpp - The hglift flag table ----------------------------------===//

#include "driver/Flags.h"

#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string_view>

namespace hglift::driver {

namespace {

constexpr unsigned bit(Command C) { return 1u << unsigned(C); }
constexpr unsigned InLift = bit(Command::Lift), InShard = bit(Command::Shard),
                   InServe = bit(Command::Serve), InFuzz = bit(Command::Fuzz),
                   InExplain = bit(Command::Explain);
/// The flags that set a field of hglift::Options.
constexpr unsigned Lifting = InLift | InShard | InServe;
constexpr uint64_t U32 = std::numeric_limits<uint32_t>::max(),
                   U64 = std::numeric_limits<uint64_t>::max();

// --- strict values: parse() takes the whole string or fails, and print()
// is its exact inverse.

/// Decimal, or hexadecimal after 0x; no sign, space or trailing text.
bool parse(const std::string &S, uint64_t &V) {
  bool Hex = S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X');
  const char *B = S.data() + (Hex ? 2 : 0), *E = S.data() + S.size();
  auto [P, Ec] = std::from_chars(B, E, V, Hex ? 16 : 10);
  return B != E && Ec == std::errc() && P == E;
}
/// A finite number >= 0 (seconds).
bool parse(const std::string &S, double &V) {
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  return !S.empty() && Ec == std::errc() && P == S.data() + S.size() &&
         std::isfinite(V) && V >= 0;
}
bool parse(const std::string &S, std::string &V) {
  V = S;
  return !S.empty();
}
bool parse(const std::string &S, std::vector<std::string> &V) {
  V = splitList(S);
  return !V.empty();
}
bool parse(const std::string &S, std::pair<int, int> &V) {
  char Tail;
  return std::sscanf(S.c_str(), "%d,%d%c", &V.first, &V.second, &Tail) == 2 &&
         V.first >= 0 && V.second >= 0;
}
bool parse(const std::string &S, const fuzz::Mutant *&V) {
  return (V = fuzz::findMutant(S)) != nullptr;
}

std::string print(uint64_t V) { return std::to_string(V); }
std::string print(double V) {
  char B[32];
  return std::string(B, std::to_chars(B, B + sizeof(B), V).ptr);
}
std::string print(const std::string &V) { return V; }
std::string print(const std::vector<std::string> &V) {
  std::string S;
  for (const std::string &N : V)
    S += (S.empty() ? "" : ",") + N;
  return S;
}
std::string print(const std::pair<int, int> &V) {
  return std::to_string(V.first) + "," + std::to_string(V.second);
}
std::string print(const fuzz::Mutant *V) { return V ? V->Name : ""; }

// --- row builders. A Field is a generic lambda returning the field a row
// sets, for a mutable and a const CommandLine alike.

#define FIELD(Path) [](auto &C) -> auto & { return C.Path; }
#define OPT(Path) FIELD(options().Path)

/// A flag with a value; an integer must lie in [Min, Max], and Zero, when
/// given, is an alternative spelling of 0.
template <class Field>
Flag value(const char *Name, const char *Meta, unsigned Cmds, Field F,
           const char *Help, uint64_t Min = 0, uint64_t Max = U32,
           const char *Zero = nullptr) {
  using T = std::remove_cvref_t<decltype(F(std::declval<CommandLine &>()))>;
  return {Name, Meta, Cmds, Help,
          [=](CommandLine &CL, const std::string &S) {
            if constexpr (std::is_integral_v<T>) {
              uint64_t V = 0;
              if (!(Zero && S == Zero) && (!parse(S, V) || V < Min || V > Max))
                return false;
              F(CL) = T(V);
              return true;
            } else {
              return parse(S, F(CL));
            }
          },
          [=](const CommandLine &CL) -> std::optional<std::string> {
            if constexpr (std::is_integral_v<T>)
              return Zero && !F(CL) ? Zero : print(uint64_t(F(CL)));
            else
              return print(F(CL));
          }};
}

/// A flag whose value is one of Names; a switch is the one-name choice of
/// the empty value.
template <class T, class Field>
Flag choice(const char *Name, const char *Meta, unsigned Cmds, Field F,
            std::vector<std::pair<std::string, T>> Names, const char *Help) {
  return {Name, Meta, Cmds, Help,
          [=](CommandLine &CL, const std::string &S) {
            for (const auto &[N, V] : Names)
              if (N == S) {
                F(CL) = V;
                return true;
              }
            return false;
          },
          [=](const CommandLine &CL) -> std::optional<std::string> {
            for (const auto &[N, V] : Names)
              if (F(CL) == V)
                return N;
            return std::nullopt;
          }};
}

template <class Field, class T>
Flag toggle(const char *Name, unsigned Cmds, Field F, T On,
            const char *Help) {
  return choice<T>(Name, nullptr, Cmds, F, {{"", On}}, Help);
}

std::vector<std::pair<std::string, std::string>> requestOps() {
  std::vector<std::pair<std::string, std::string>> Ops;
  for (const char *Op : serve::RequestOps)
    Ops.push_back({Op, Op});
  return Ops;
}

/// The single positional of CL's command, or null (shard takes a list of
/// binaries, fuzz none).
template <class C> auto positional(C &CL) -> decltype(&CL.Binary) {
  return CL.Cmd == Command::Lift      ? &CL.Binary
         : CL.Cmd == Command::Serve   ? &CL.Serve.File
         : CL.Cmd == Command::Explain ? &CL.Explain.ReportPath
                                      : nullptr;
}

const char *const Synopses[] = {"[lift|check] <binary.elf>",
                                "shard <bin.elf>...", "serve [FILE]", "fuzz",
                                "explain <report.json>"};

} // namespace

const std::vector<Flag> &flagTable() {
  static const std::vector<Flag> Table = {
      // hglift::Options: one meaning in lift, check, shard and serve.
      toggle("--library", Lifting, OPT(Library), true,
             "lift every exported function, not the entry point"),
      value("--cache-dir", "DIR", Lifting, OPT(Cache.Dir),
            "artifact store; hits are re-proven (shard: required)"),
      value("--cache-max-mb", "N", Lifting, OPT(Cache.MaxMB),
            "store budget in MiB (default 0 = no limit)", 0, U64 >> 20),
      toggle("--no-join", Lifting, OPT(Lift.EnableJoin), false,
             "ablation: disable state joining"),
      toggle("--destroy-always", Lifting, OPT(Lift.Sym.Policy),
             mem::UnknownPolicy::DestroyAlways, "ablation: no alias branching"),
      toggle("--no-vsa", Lifting, OPT(Lift.Sym.Vsa), false,
             "ablation: no value-set analysis of indirections"),
      value("--vsa-max-targets", "N", Lifting, OPT(Lift.Sym.VsaMaxTargets),
            "targets per VSA-resolved site (default 64)", 1),
      value("--max-seconds", "N", Lifting, OPT(Lift.MaxSeconds),
            "per-function wall budget (default 60, 0 = no limit)"),
      value("--max-insns", "N", Lifting, OPT(Lift.MaxVertices),
            "per-function vertex fuel (default 50000)", 1, U64),
      value("--threads", "N", InLift | InShard, OPT(Lift.Threads),
            "lifting and Step-2 threads (0 = hardware, default 1)"),
      // The lift/check and shard drivers.
      toggle("--check", InLift | InShard,
             [](auto &C) -> auto & {
               return C.Cmd == Command::Shard ? C.Shard.Check : C.Check;
             },
             true, "run the Step-2 Hoare-triple checker"),
      value("--stats-json", "FILE", InLift | InShard, FIELD(StatsJson),
            "write lifting (shard: scheduler) statistics"),
      value("--report-json", "FILE", InLift | InShard, FIELD(ReportJson),
            "write the verification report (shard: merged)"),
      value("--witness-dir", "DIR", InLift | InServe, OPT(Witness.Dir),
            "search diagnostics for replayable counterexamples"),
      value("--witness-budget", "N", InLift | InServe, OPT(Witness.Budget),
            "candidate states per diagnostic site (default 64)", 1),
      value("--trace", "FILE", InLift, FIELD(Trace),
            "stream trace events as JSON Lines"),
      value("--export-isabelle", "FILE", InLift, FIELD(IsabelleOut),
            "write the Isabelle/HOL theory"),
      value("--export-dot", "FILE", InLift, FIELD(DotOut),
            "write the Hoare Graphs as Graphviz dot"),
      toggle("--dump-hg", InLift, FIELD(DumpHG), true,
             "print every Hoare Graph"),
      value("--mutant", "NAME", InLift, FIELD(Mutant),
            "plant a fuzz-registry mutant while lifting"),

      // shard
      value("--shards", "N|auto", InShard, FIELD(Shard.Shards),
            "worker processes (default 1: in-process)", 1, U32, "auto"),
      toggle("--no-work-stealing", InShard, FIELD(Shard.WorkStealing), false,
             "ablation: static round-robin claims"),
      toggle("--progress", InShard, FIELD(Shard.Progress), true,
             "live progress line on stderr"),
      value("--shard-worker-fds", "G,R", InShard, FIELD(WorkerFds),
            "internal: run as a worker on these pipes"),

      // serve: the daemon and its client
      value("--socket", "PATH", InServe, FIELD(Serve.SocketPath),
            "Unix socket (required)"),
      value("--tcp-port", "N", InServe, FIELD(Serve.TcpPort),
            "also listen on 127.0.0.1:N", 0, 65535),
      value("--threads", "N", InServe, FIELD(Serve.Workers),
            "worker pool size (default 1)", 1),
      value("--max-queue", "N", InServe, FIELD(Serve.MaxQueue),
            "admission queue bound (default 64)", 1),
      value("--memo-max", "N", InServe, FIELD(Serve.MemoMax),
            "response memo entries (default 128, 0 = off)"),
      value("--retry-after-ms", "N", InServe, FIELD(Serve.RetryAfterMs),
            "backoff sent with rejections (default 100)"),
      toggle("--client", InServe, FIELD(Serve.Client), true,
             "submit one request to a running daemon"),
      choice<std::string>("--op", "OP", InServe, FIELD(Serve.Op), requestOps(),
                          "client request op (default lift)"),
      value("--report-out", "FILE", InServe, FIELD(Serve.ReportOut),
            "client: write the unescaped result payload"),
      value("--function", "F", InServe | InExplain,
            FIELD(Explain.FunctionFilter), "explain only the function at F"),
      value("--addr", "A", InServe | InExplain, FIELD(Explain.AddrFilter),
            "explain only diagnostics at address A"),

      // fuzz
      value("--seed", "N", InFuzz, FIELD(Fuzz.Seed),
            "campaign master seed (default 1)", 0, U64),
      value("--runs", "N", InFuzz, FIELD(Fuzz.Runs),
            "unmutated fuzzing runs (default 25)"),
      value("--max-insns", "N", InFuzz, FIELD(Fuzz.MaxInsns),
            "per-function instruction cap (default 48, floor 16)", 1),
      toggle("--mutate-semantics", InFuzz, FIELD(Fuzz.MutateSemantics), true,
             "probe every registered semantics mutant"),
      value("--mutants", "a,b", InFuzz, FIELD(Fuzz.MutantFilter),
            "probe only these mutants"),
      value("--fuzz-json", "FILE", InFuzz, FIELD(Fuzz.JsonPath),
            "write the campaign report"),
      value("--repro-dir", "DIR", InFuzz, FIELD(Fuzz.ReproDir),
            "where reproducers land (default .)"),
      value("--reduce-mutant", "NAME", InFuzz, FIELD(Fuzz.ReduceMutant),
            "reduce the binary that kills this mutant"),
      value("--budget-seconds", "N", InFuzz, FIELD(Fuzz.BudgetSeconds),
            "wall cap on the run loop (0 = exactly --runs)"),
      value("--oracle-runs", "N", InFuzz, FIELD(Fuzz.OracleRuns),
            "concrete walks per function (default 3)"),
      value("--replay", "FILE", InFuzz, FIELD(Replay),
            "replay a reproducer or witness sidecar"),
  };
  return Table;
}

#undef OPT
#undef FIELD

bool parseCommandLine(int Argc, const char *const *Argv, CommandLine &CL,
                      std::ostream &ES) {
  CL = CommandLine();
  int I = 1;
  for (const Subcommand &S : Subcommands)
    if (I < Argc && std::string_view(Argv[I]) == S.Word) {
      CL.Cmd = S.Cmd;
      CL.Check = S.Check;
      ++I;
      break;
    }
  auto Fail = [&](const std::string &Msg) {
    ES << "hglift " << commandName(CL.Cmd) << ": " << Msg << "\n";
    return false;
  };

  for (; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.size() < 2 || A[0] != '-') {
      std::string *Slot = positional(CL);
      if (CL.Cmd == Command::Shard)
        CL.Shard.Binaries.push_back(A);
      else if (!Slot || !Slot->empty())
        return Fail("unexpected argument " + A);
      else
        *Slot = A;
      continue;
    }
    const std::vector<Flag> &T = flagTable();
    auto F = std::find_if(T.begin(), T.end(), [&](const Flag &R) {
      return R.Name == A && R.accepts(CL.Cmd);
    });
    if (F == T.end())
      return Fail("unknown option " + A);
    if (F->Meta && I + 1 == Argc)
      return Fail(A + " needs a value " + F->Meta);
    std::string V = F->Meta ? Argv[++I] : "";
    if (!F->Set(CL, V))
      return Fail(A + ": malformed value '" + V + "'");
  }

  const serve::ServeOptions &S = CL.Serve;
  if (CL.Cmd == Command::Serve && S.SocketPath.empty())
    return Fail("--socket PATH is required");
  // Lift's binary and explain's report are required; serve's FILE only by
  // the client ops that name a file.
  if (std::string *Slot = positional(CL); Slot && Slot->empty() &&
      (CL.Cmd != Command::Serve ||
       (S.Client && S.Op != "metrics" && S.Op != "shutdown")))
    return Fail(Slot == &CL.Binary ? "no binary given" : "no file given");
  return true;
}

std::vector<std::string> renderCommandLine(const CommandLine &CL) {
  CommandLine Def;
  Def.Cmd = CL.Cmd;
  std::vector<std::string> A{commandName(CL.Cmd)};
  for (const Flag &F : flagTable())
    if (std::optional<std::string> V = F.Get(CL);
        F.accepts(CL.Cmd) && V && V != F.Get(Def)) {
      A.push_back(F.Name);
      if (F.Meta)
        A.push_back(*V);
    }
  if (CL.Cmd == Command::Shard)
    A.insert(A.end(), CL.Shard.Binaries.begin(), CL.Shard.Binaries.end());
  else if (const std::string *P = positional(CL); P && !P->empty())
    A.push_back(*P);
  return A;
}

void printUsage(std::ostream &OS, std::optional<Command> Cmd) {
  for (Command C : {Command::Lift, Command::Shard, Command::Serve,
                    Command::Fuzz, Command::Explain}) {
    if (Cmd && *Cmd != C)
      continue;
    OS << "usage: hglift " << Synopses[unsigned(C)] << " [options]\n";
    for (const Flag &F : flagTable())
      if (F.accepts(C)) {
        std::string Head = std::string("  ") + F.Name +
                           (F.Meta ? std::string(" ") + F.Meta : "") + " ";
        OS << padRight(Head, 28) << F.Help << "\n";
      }
  }
}

} // namespace hglift::driver
