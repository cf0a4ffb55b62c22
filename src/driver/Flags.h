//===- Flags.h - The hglift flag table -------------------------*- C++ -*-===//
//
// Every flag of every hglift subcommand is one row of one table
// (Flags.cpp): its name, the subcommands that accept it, a strict parser
// for its value, the CommandLine field it sets, and its help line. The
// parser, the usage text, the shard worker's argv and doc_drift_check all
// read that table, so a flag cannot be parsed, forwarded or documented
// differently in two places.
//
// A flag that sets a field of hglift::Options (`--max-seconds`,
// `--no-vsa`, `--cache-dir`, ...) sets it in whichever Options the
// subcommand lifts with (CommandLine::options()), so it means the same
// thing in lift, check, shard and serve.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_DRIVER_FLAGS_H
#define HGLIFT_DRIVER_FLAGS_H

#include "fuzz/Campaign.h"
#include "serve/Serve.h"
#include "shard/Shard.h"

#include <functional>
#include <optional>

namespace hglift::driver {

enum class Command : uint8_t { Lift, Shard, Serve, Fuzz, Explain };

struct Subcommand {
  const char *Word;
  Command Cmd;
  bool Check; ///< `check` is `lift --check`
};
/// The subcommand words: first the name of each Command, in enum order,
/// then the spellings `check` (lift --check) and `--lift`. Without a word,
/// argv means `lift`.
inline constexpr Subcommand Subcommands[] = {
    {"lift", Command::Lift, false},       {"shard", Command::Shard, false},
    {"serve", Command::Serve, false},     {"fuzz", Command::Fuzz, false},
    {"explain", Command::Explain, false}, {"check", Command::Lift, true},
    {"--lift", Command::Lift, false}};

inline const char *commandName(Command C) { return Subcommands[int(C)].Word; }

/// Everything one hglift invocation is configured with: the target every
/// row of the flag table writes. Plain data; the default-constructed value
/// (with Cmd set) is what an invocation without flags means.
struct CommandLine {
  Command Cmd = Command::Lift;

  // lift / check
  Options Opt;
  std::string Binary;
  bool Check = false, DumpHG = false;
  std::string IsabelleOut, DotOut, Trace;
  const fuzz::Mutant *Mutant = nullptr;
  /// --stats-json / --report-json, of lift/check and of shard.
  std::string StatsJson, ReportJson;

  shard::ShardOptions Shard;
  /// --shard-worker-fds G,R: a shard worker's grant and request pipes.
  std::pair<int, int> WorkerFds{-1, -1};
  serve::ServeOptions Serve;
  fuzz::FuzzOptions Fuzz;
  std::string Replay;
  /// explain's report and filters; the serve client sends the same
  /// --function/--addr filters with an explain request.
  ExplainOptions Explain;

  /// The hglift::Options this command lifts with.
  Options &options() {
    return Cmd == Command::Shard ? Shard.Base
           : Cmd == Command::Serve ? Serve.Base : Opt;
  }
  const Options &options() const {
    return const_cast<CommandLine *>(this)->options();
  }

  bool operator==(const CommandLine &) const = default;
};

/// One row of the flag table.
struct Flag {
  const char *Name;
  /// Value placeholder; a numeric value is always "N" (or "N|auto"). Null
  /// for a switch.
  const char *Meta;
  unsigned Cmds; ///< bit (1 << Command) per subcommand accepting the flag
  const char *Help;
  /// Parse a value into the row's field; false when it is malformed.
  std::function<bool(CommandLine &, const std::string &)> Set;
  /// The field's value as Set parses it (empty for a set switch; nullopt
  /// for a switch that is off). A rendered argv omits default values.
  std::function<std::optional<std::string>(const CommandLine &)> Get;

  bool accepts(Command C) const { return Cmds & (1u << unsigned(C)); }
};

/// The table, in usage-text order.
const std::vector<Flag> &flagTable();

/// Parse argv. On a usage error (unknown flag, missing or malformed value,
/// missing or extra positional) writes one line naming the offending
/// argument to ES and returns false: the caller exits 2.
bool parseCommandLine(int Argc, const char *const *Argv, CommandLine &CL,
                      std::ostream &ES);

/// The argv (without argv[0]) that parses back to CL: the subcommand
/// name, every flag whose field differs from its default, the positionals.
std::vector<std::string> renderCommandLine(const CommandLine &CL);

/// Each subcommand's synopsis and flags with their help lines; only Cmd's
/// when given.
void printUsage(std::ostream &OS, std::optional<Command> Cmd = std::nullopt);

} // namespace hglift::driver

#endif // HGLIFT_DRIVER_FLAGS_H
