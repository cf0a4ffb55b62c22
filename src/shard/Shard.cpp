//===- Shard.cpp - Multi-process sharded lifting --------------------------===//

#include "shard/Shard.h"

#include "shard/LineProto.h"
#include "diag/Diag.h"
#include "diag/Json.h"
#include "driver/ExitCode.h"
#include "driver/Flags.h"
#include "elf/ElfReader.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace hglift::shard {

using driver::ExitCode;
using driver::toExit;

/// Re-spawns granted to a crashed worker, and re-grants of a unit whose
/// worker crashed or failed it, before the run is declared failed.
constexpr unsigned MaxRetries = 1;

unsigned resolveAutoShards(size_t NumUnits) {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  uint64_t Cap = Hw;
  // A worker holds one Session plus solver state; budget 256 MiB each and
  // never probe past what the machine can actually back.
  std::ifstream In("/proc/meminfo");
  std::string Line;
  while (std::getline(In, Line)) {
    unsigned long long Kb = 0;
    if (std::sscanf(Line.c_str(), "MemAvailable: %llu kB", &Kb) == 1) {
      uint64_t MemCap = Kb / (256 * 1024);
      if (MemCap < 1)
        MemCap = 1;
      Cap = std::min(Cap, MemCap);
      break;
    }
  }
  if (NumUnits)
    Cap = std::min<uint64_t>(Cap, NumUnits);
  return static_cast<unsigned>(std::max<uint64_t>(1, Cap));
}

std::string fragPath(const std::string &CacheDir, size_t Idx) {
  return CacheDir + "/shard/frag-" + std::to_string(Idx) + ".report.json";
}

namespace {

/// Static cost heuristic: executable bytes dominate, with a per-function
/// constant for symbol-rich libraries. Only the order it induces matters
/// to the scheduler; the progress reporter calibrates its scale against
/// observed seconds as completions arrive.
double heuristicCost(const elf::BinaryImage &Img) {
  size_t TextBytes = 0;
  for (const elf::Segment &S : Img.Segments)
    if (S.Exec)
      TextBytes += S.Bytes.size();
  return 1e-3 * static_cast<double>(TextBytes) +
         0.02 * static_cast<double>(Img.Functions.size());
}

/// Render one binary's report fragment — the exact bytes `hglift
/// [check] --report-json` would write for it. Unreadable ELFs get a
/// fixed synthetic fragment (same schema envelope, outcome "unreadable")
/// so the merge stays total; its exit contribution is Fail, like the
/// plain CLI's.
std::string liftOneFragment(const ShardOptions &Opt, size_t Idx,
                            int &ExitAccum) {
  const std::string &Path = Opt.Binaries[Idx];
  auto Img = elf::readElfFile(Path);
  if (!Img) {
    ExitAccum = std::max(ExitAccum, toExit(ExitCode::Fail));
    std::ostringstream OS;
    OS << "{\n"
       << "  \"schema_version\": " << diag::ReportSchemaVersion << ",\n"
       << "  \"binary\": \"" << diag::jsonEscape(Path) << "\",\n"
       << "  \"outcome\": \"unreadable\",\n"
       << "  \"fail_reason\": \"cannot parse ELF file\",\n"
       << "  \"functions\": [\n  ]\n}\n";
    return OS.str();
  }

  Session S(*Img, Opt.Base);
  ExitAccum = std::max(ExitAccum, toExit(S.verdict(Opt.Check)));

  std::ostringstream OS;
  S.writeReportJson(OS);
  return OS.str();
}

/// Tempfile-then-rename so a concurrently crashing or retried worker can
/// never leave a torn fragment: readers see the old bytes or the new
/// bytes, nothing in between.
bool writeAtomically(const std::string &Path, const std::string &Bytes) {
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out)
      return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool ensureFragDir(const std::string &CacheDir, std::string &Err) {
  std::error_code EC;
  std::filesystem::create_directories(CacheDir + "/shard", EC);
  if (EC) {
    Err = "cannot create " + CacheDir + "/shard: " + EC.message();
    return false;
  }
  return true;
}

// --- claim-protocol plumbing ---------------------------------------------
//
// Line-based, newline-terminated, every message far below PIPE_BUF so
// writes are atomic. Parent-to-worker: "RUN <id> <bin>", "BYE".
// Worker-to-parent: "REQ", "FIN <id> <exit> <seconds>". The byte-level
// framing (writeAll/readLineBlocking) lives in shard/LineProto.h because
// this seam is deliberately transport-shaped: `hglift serve` speaks its
// JSONL request/response protocol over a socket with the very same
// plumbing.

std::string makeRunLine(size_t Id, const WorkUnit &U) {
  return "RUN " + std::to_string(Id) + " " + std::to_string(U.Bin) + "\n";
}

bool parseRunLine(const std::string &Line, size_t &Id, WorkUnit &U) {
  std::istringstream IS(Line);
  std::string Tag;
  return (IS >> Tag >> Id >> U.Bin) && Tag == "RUN";
}

/// One worker slot in the parent: its process, its pipe ends, and its
/// protocol state.
struct WorkerSlot {
  pid_t Pid = -1;
  int ReqR = -1;   ///< parent reads REQ/FIN here
  int GrantW = -1; ///< parent writes RUN/BYE here
  unsigned SpawnCount = 0;
  long Claimed = -1; ///< unit id currently claimed, -1 when idle
  bool Parked = false;
  bool ByeSent = false;
  bool Alive = false;
  std::string Buf;
};

/// fork/exec one worker on fresh pipes. The crash hooks are planted in
/// the child's environment only — the parent's environment is never
/// touched, so sibling workers and the retry are unaffected. All other
/// slots' pipe ends are closed in the child: a crashed sibling's request
/// pipe must reach EOF in the parent, not stay open here.
bool spawnWorker(const ShardOptions &Opt, const std::string &Exe,
                 std::vector<WorkerSlot> &Slots, size_t SlotIdx,
                 bool InjectCrashNow, bool InjectCrashMidClaim) {
  int Req[2], Grant[2];
  if (::pipe(Req) != 0)
    return false;
  if (::pipe(Grant) != 0) {
    ::close(Req[0]);
    ::close(Req[1]);
    return false;
  }

  // The worker argv. No slice — workers pull over the claim pipes — but
  // the whole ShardOptions, rendered through the flag table that parses
  // it, so the worker reconstructs an identical one.
  driver::CommandLine CL;
  CL.Cmd = driver::Command::Shard;
  CL.Shard = Opt;
  CL.WorkerFds = {Grant[0], Req[1]};
  std::vector<std::string> Args = driver::renderCommandLine(CL);
  Args.insert(Args.begin(), Exe);
  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Req[0]);
    ::close(Req[1]);
    ::close(Grant[0]);
    ::close(Grant[1]);
    return false;
  }
  if (Pid == 0) {
    for (const WorkerSlot &S : Slots) {
      if (S.ReqR >= 0)
        ::close(S.ReqR);
      if (S.GrantW >= 0)
        ::close(S.GrantW);
    }
    ::close(Req[0]);
    ::close(Grant[1]);
    if (InjectCrashNow)
      ::setenv("HGLIFT_SHARD_CRASH_NOW", "1", 1);
    else
      ::unsetenv("HGLIFT_SHARD_CRASH_NOW");
    if (InjectCrashMidClaim)
      ::setenv("HGLIFT_SHARD_CRASH_AFTER_CLAIM", "1", 1);
    else
      ::unsetenv("HGLIFT_SHARD_CRASH_AFTER_CLAIM");
    ::execv(Argv[0], Argv.data());
    // exec failed: exit with the Usage code so the parent treats it as a
    // crash-class failure and reports it after the retry also fails.
    std::fprintf(stderr, "shard: cannot exec %s: %s\n", Argv[0],
                 std::strerror(errno));
    ::_exit(toExit(ExitCode::Usage));
  }

  ::close(Req[1]);
  ::close(Grant[0]);
  WorkerSlot &S = Slots[SlotIdx];
  S.Pid = Pid;
  S.ReqR = Req[0];
  S.GrantW = Grant[1];
  ++S.SpawnCount;
  S.Claimed = -1;
  S.Parked = false;
  S.ByeSent = false;
  S.Alive = true;
  S.Buf.clear();
  return true;
}

/// Live progress/ETA line on stderr. Carriage-return refreshed, final
/// newline on finish; never touches stdout or the merged report.
struct ProgressLine {
  bool Enabled = false;
  bool Printed = false;
  std::chrono::steady_clock::time_point Last{};

  void tick(size_t Done, size_t Total, unsigned Running, size_t Queued,
            const ShardSchedStats &Sched, double EstDone, double EstRemain,
            unsigned Workers, bool Force) {
    if (!Enabled)
      return;
    auto Now = std::chrono::steady_clock::now();
    if (!Force && Printed &&
        std::chrono::duration<double>(Now - Last).count() < 0.2)
      return;
    Last = Now;
    Printed = true;
    // Calibrate the heuristic scale against observed completions; until
    // one lands, trust the estimates at face value.
    double Calib = (EstDone > 1e-9 && Sched.ObservedSeconds > 0)
                       ? Sched.ObservedSeconds / EstDone
                       : 1.0;
    double Eta = Workers ? EstRemain * Calib / Workers : EstRemain * Calib;
    std::fprintf(stderr,
                 "\rshard: %zu/%zu units done, %u running, %zu queued | "
                 "steals %llu requeues %llu | eta %.1fs   ",
                 Done, Total, Running, Queued,
                 static_cast<unsigned long long>(Sched.Steals),
                 static_cast<unsigned long long>(Sched.Requeues), Eta);
  }

  void finish() {
    if (Enabled && Printed)
      std::fprintf(stderr, "\n");
  }
};

} // namespace

std::vector<WorkUnit> planUnits(const ShardOptions &Opt, unsigned Shards,
                                ShardSchedStats &Sched) {
  std::vector<WorkUnit> Units;
  for (size_t I = 0; I < Opt.Binaries.size(); ++I) {
    WorkUnit U;
    U.Bin = I;
    U.RROwner = Shards ? static_cast<unsigned>(I % Shards) : 0;
    // An unreadable ELF costs 0: the synthetic "unreadable" fragment is
    // the cheapest unit in any queue.
    if (auto Img = elf::readElfFile(Opt.Binaries[I]))
      U.Est = heuristicCost(*Img);
    Sched.EstimatedSeconds += U.Est;
    Units.push_back(U);
  }
  Sched.UnitsTotal = Units.size();
  return Units;
}

int execUnit(const ShardOptions &Opt, const WorkUnit &U, double *SecondsOut) {
  if (U.Bin >= Opt.Binaries.size())
    return toExit(ExitCode::Usage);
  auto T0 = std::chrono::steady_clock::now();
  int Exit = toExit(ExitCode::Ok);
  std::string Frag = liftOneFragment(Opt, U.Bin, Exit);
  std::string Path = fragPath(Opt.Base.Cache.Dir, U.Bin);
  if (!writeAtomically(Path, Frag)) {
    std::fprintf(stderr, "shard: cannot write %s\n", Path.c_str());
    Exit = toExit(ExitCode::Io);
  }
  if (SecondsOut)
    *SecondsOut =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
  return Exit;
}

int runWorkerLoop(const ShardOptions &Opt, int GrantFd, int RequestFd) {
  // Deterministic crash hooks for the retry tests: planted by the parent
  // in this process's environment, never set outside the harness.
  if (std::getenv("HGLIFT_SHARD_CRASH_NOW"))
    ::raise(SIGKILL);
  bool CrashAfterClaim = std::getenv("HGLIFT_SHARD_CRASH_AFTER_CLAIM");

  ::signal(SIGPIPE, SIG_IGN);
  std::string Err;
  if (!ensureFragDir(Opt.Base.Cache.Dir, Err)) {
    std::fprintf(stderr, "shard: %s\n", Err.c_str());
    return toExit(ExitCode::Io);
  }

  if (!writeAll(RequestFd, "REQ\n"))
    return toExit(ExitCode::Io);
  std::string Buf;
  for (;;) {
    std::optional<std::string> Line = readLineBlocking(GrantFd, Buf);
    if (!Line)
      return toExit(ExitCode::Io); // parent vanished
    if (*Line == "BYE")
      return toExit(ExitCode::Ok);
    size_t Id = 0;
    WorkUnit U;
    if (!parseRunLine(*Line, Id, U)) {
      std::fprintf(stderr, "shard: malformed grant: %s\n", Line->c_str());
      return toExit(ExitCode::Usage);
    }
    if (CrashAfterClaim)
      ::raise(SIGKILL); // mid-claim: unit granted, nothing executed
    double Secs = 0;
    int E = execUnit(Opt, U, &Secs);
    char Msg[128];
    std::snprintf(Msg, sizeof(Msg), "FIN %zu %d %.6f\nREQ\n", Id, E, Secs);
    if (!writeAll(RequestFd, Msg))
      return toExit(ExitCode::Io);
  }
}

ShardResult runShards(const ShardOptions &Opt) {
  ShardResult R;
  const std::string &Dir = Opt.Base.Cache.Dir;
  if (Opt.Binaries.empty()) {
    R.Error = "no input binaries";
    R.Exit = toExit(ExitCode::Usage);
    return R;
  }
  if (Dir.empty()) {
    R.Error = "shard requires --cache-dir (workers coordinate through it)";
    R.Exit = toExit(ExitCode::Usage);
    return R;
  }
  if (!ensureFragDir(Dir, R.Error)) {
    R.Exit = toExit(ExitCode::Io);
    return R;
  }
  // Stale fragments from a previous run must not satisfy this one's
  // completion checks (they could mask a crashed worker).
  for (size_t I = 0; I < Opt.Binaries.size(); ++I)
    std::remove(fragPath(Dir, I).c_str());

  unsigned Shards =
      Opt.Shards == 0 ? resolveAutoShards(Opt.Binaries.size()) : Opt.Shards;
  // More workers than binaries only ever idle.
  unsigned W = static_cast<unsigned>(
      std::min<size_t>(Shards, Opt.Binaries.size()));
  if (W == 0)
    W = 1;
  R.ShardsResolved = W;

  std::vector<WorkUnit> Units = planUnits(Opt, W, R.Sched);

  // Shared scheduler state (parent side; the serial path drains the same
  // structures in-process).
  const size_t N = Units.size();
  std::vector<uint8_t> ClaimedFlag(N, 0), AnyOwner(N, 0);
  std::vector<unsigned> UnitAttempts(N, 0);
  std::vector<size_t> Ready(N);
  std::iota(Ready.begin(), Ready.end(), size_t(0));
  size_t DoneCount = 0;
  int ExitAccum = toExit(ExitCode::Ok);
  double EstDone = 0;

  ProgressLine Progress;
  Progress.Enabled = Opt.Progress;

  // Steal-order priority: longest estimated job first, then unit id for
  // determinism. The static ablation instead serves each worker its
  // round-robin slice in plan order.
  auto Better = [&](size_t A, size_t B) {
    if (!Opt.WorkStealing)
      return A < B;
    if (Units[A].Est != Units[B].Est)
      return Units[A].Est > Units[B].Est;
    return A < B;
  };
  auto PickUnit = [&](unsigned WorkerId) -> long {
    long Best = -1;
    for (size_t Id : Ready) {
      if (!Opt.WorkStealing && !AnyOwner[Id] &&
          Units[Id].RROwner != WorkerId)
        continue;
      if (Best < 0 || Better(Id, static_cast<size_t>(Best)))
        Best = static_cast<long>(Id);
    }
    return Best;
  };
  auto MarkDone = [&](size_t Id, int Exit, double Secs) {
    ++DoneCount;
    EstDone += Units[Id].Est;
    ExitAccum = std::max(ExitAccum, Exit);
    R.Sched.ObservedSeconds += Secs;
  };

  if (W <= 1) {
    // Serial reference: drain the very same queue in-process, in the
    // same order the scheduler would grant it.
    while (DoneCount < N) {
      long Id = PickUnit(0);
      if (Id < 0) {
        R.Error = "internal: scheduler stalled with units remaining";
        R.Exit = toExit(ExitCode::Io);
        return R;
      }
      Ready.erase(std::find(Ready.begin(), Ready.end(),
                            static_cast<size_t>(Id)));
      ++R.Sched.Claims;
      double Secs = 0;
      int E = execUnit(Opt, Units[Id], &Secs);
      if (E >= toExit(ExitCode::Usage)) {
        Progress.finish();
        R.Error = "serial lift failed";
        R.Exit = E;
        return R;
      }
      MarkDone(static_cast<size_t>(Id), E, Secs);
      Progress.tick(DoneCount, N, 0, Ready.size(), R.Sched, EstDone,
                    R.Sched.EstimatedSeconds - EstDone, 1, true);
    }
    R.Exit = ExitAccum;
  } else {
    std::string Exe = Opt.WorkerExe.empty() ? "/proc/self/exe" : Opt.WorkerExe;
    long CrashSlot = -1, MidClaimSlot = -1;
    if (const char *TC = std::getenv("HGLIFT_SHARD_TEST_CRASH"))
      CrashSlot = std::strtol(TC, nullptr, 10);
    if (const char *TC = std::getenv("HGLIFT_SHARD_TEST_CRASH_MIDCLAIM"))
      MidClaimSlot = std::strtol(TC, nullptr, 10);

    // Dead workers must surface as EPIPE on the grant pipe, not kill the
    // parent (which may be a test harness) with SIGPIPE.
    void (*OldPipe)(int) = ::signal(SIGPIPE, SIG_IGN);

    std::vector<WorkerSlot> Slots(W);
    std::string FatalError;
    int FatalExit = 0;

    auto CleanupAll = [&]() {
      for (WorkerSlot &S : Slots) {
        if (!S.Alive)
          continue;
        ::close(S.ReqR);
        ::close(S.GrantW);
        S.ReqR = -1;
        S.GrantW = -1;
        ::kill(S.Pid, SIGKILL);
        int St = 0;
        ::waitpid(S.Pid, &St, 0);
        S.Alive = false;
      }
      ::signal(SIGPIPE, OldPipe);
    };

    // Serve a worker's pending request: grant the best eligible unit,
    // send BYE when the queue is drained, park it otherwise.
    auto TryServe = [&](size_t SlotIdx) {
      WorkerSlot &S = Slots[SlotIdx];
      if (!S.Alive || S.ByeSent || S.Claimed >= 0 || !S.Parked)
        return;
      if (DoneCount == N) {
        S.Parked = false;
        S.ByeSent = true;
        writeAll(S.GrantW, "BYE\n"); // failure surfaces as EOF next poll
        return;
      }
      long Id = PickUnit(static_cast<unsigned>(SlotIdx));
      if (Id < 0)
        return; // stay parked; a FIN or requeue will unblock it
      if (!writeAll(S.GrantW, makeRunLine(static_cast<size_t>(Id),
                                          Units[Id])))
        return; // worker died mid-grant; EOF handling requeues nothing
                // (the unit was never committed to it)
      Ready.erase(
          std::find(Ready.begin(), Ready.end(), static_cast<size_t>(Id)));
      ClaimedFlag[Id] = 1;
      S.Claimed = Id;
      S.Parked = false;
      ++R.Sched.Claims;
      if (Opt.WorkStealing && Units[Id].RROwner != SlotIdx)
        ++R.Sched.Steals;
    };

    auto Requeue = [&](size_t Id) -> bool {
      ClaimedFlag[Id] = 0;
      AnyOwner[Id] = 1; // its owner may be gone; anyone may rescue it
      ++R.Sched.Requeues;
      if (++UnitAttempts[Id] > MaxRetries) {
        FatalError = "unit for " + Opt.Binaries[Units[Id].Bin] +
                     " failed repeatedly";
        FatalExit = toExit(ExitCode::Io);
        return false;
      }
      Ready.push_back(Id);
      return true;
    };

    auto HandleExit = [&](size_t SlotIdx) {
      WorkerSlot &S = Slots[SlotIdx];
      int Status = 0;
      ::waitpid(S.Pid, &Status, 0);
      ::close(S.ReqR);
      ::close(S.GrantW);
      // Scrub the fd numbers: a respawn's fresh pipes may reuse them, and
      // the child closes every fd still recorded in the slot table.
      S.ReqR = -1;
      S.GrantW = -1;
      S.Alive = false;
      bool Clean = S.ByeSent && S.Claimed < 0 && WIFEXITED(Status) &&
                   WEXITSTATUS(Status) == toExit(ExitCode::Ok);
      if (Clean)
        return;
      ++R.WorkersCrashed;
      if (S.Claimed >= 0) {
        size_t Id = static_cast<size_t>(S.Claimed);
        S.Claimed = -1;
        if (!Requeue(Id))
          return;
      }
      if (S.SpawnCount <= MaxRetries) {
        if (!spawnWorker(Opt, Exe, Slots, SlotIdx, false, false)) {
          FatalError = "fork failed";
          FatalExit = toExit(ExitCode::Io);
          return;
        }
        ++R.WorkersSpawned;
        ++R.WorkersRetried;
      } else {
        FatalError = "shard worker " + std::to_string(SlotIdx) +
                     " failed twice (status " + std::to_string(Status) + ")";
        FatalExit = WIFEXITED(Status) ? WEXITSTATUS(Status)
                                      : toExit(ExitCode::Io);
      }
    };

    auto ProcessLines = [&](size_t SlotIdx) {
      WorkerSlot &S = Slots[SlotIdx];
      size_t NL;
      while (S.Alive && (NL = S.Buf.find('\n')) != std::string::npos) {
        std::string Line = S.Buf.substr(0, NL);
        S.Buf.erase(0, NL + 1);
        if (Line == "REQ") {
          S.Parked = true;
          TryServe(SlotIdx);
        } else if (Line.rfind("FIN ", 0) == 0) {
          size_t Id = 0;
          int UnitExit = 0;
          double Secs = 0;
          if (std::sscanf(Line.c_str(), "FIN %zu %d %lf", &Id, &UnitExit,
                          &Secs) != 3 ||
              Id >= N || S.Claimed != static_cast<long>(Id) ||
              !ClaimedFlag[Id]) {
            FatalError = "malformed completion from worker " +
                         std::to_string(SlotIdx) + ": " + Line;
            FatalExit = toExit(ExitCode::Io);
            return;
          }
          S.Claimed = -1;
          ClaimedFlag[Id] = 0;
          if (UnitExit >= toExit(ExitCode::Usage)) {
            // Unit-level IO/usage failure with a live worker: requeue the
            // unit (someone else may have a healthier view of the disk),
            // fail the run if it keeps failing.
            if (!Requeue(Id))
              return;
          } else {
            MarkDone(Id, UnitExit, Secs);
            if (DoneCount == N)
              for (size_t K = 0; K < Slots.size(); ++K)
                TryServe(K);
          }
        } else {
          FatalError = "malformed message from worker " +
                       std::to_string(SlotIdx) + ": " + Line;
          FatalExit = toExit(ExitCode::Io);
          return;
        }
      }
    };

    for (size_t K = 0; K < Slots.size() && FatalError.empty(); ++K) {
      if (!spawnWorker(Opt, Exe, Slots, K,
                       static_cast<long>(K) == CrashSlot,
                       static_cast<long>(K) == MidClaimSlot)) {
        FatalError = "fork failed";
        FatalExit = toExit(ExitCode::Io);
        break;
      }
      ++R.WorkersSpawned;
    }

    while (FatalError.empty()) {
      bool AnyAlive = false;
      std::vector<struct pollfd> Fds;
      std::vector<size_t> FdSlot;
      for (size_t K = 0; K < Slots.size(); ++K) {
        if (!Slots[K].Alive)
          continue;
        AnyAlive = true;
        Fds.push_back({Slots[K].ReqR, POLLIN, 0});
        FdSlot.push_back(K);
      }
      if (!AnyAlive) {
        if (DoneCount == N)
          break;
        FatalError = "all workers exited with units remaining";
        FatalExit = toExit(ExitCode::Io);
        break;
      }
      int PR = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 200);
      if (PR < 0 && errno != EINTR) {
        FatalError = "poll failed";
        FatalExit = toExit(ExitCode::Io);
        break;
      }
      for (size_t F = 0; F < Fds.size() && FatalError.empty(); ++F) {
        if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        WorkerSlot &S = Slots[FdSlot[F]];
        if (!S.Alive)
          continue;
        char Tmp[512];
        ssize_t Rd = ::read(S.ReqR, Tmp, sizeof(Tmp));
        if (Rd > 0) {
          S.Buf.append(Tmp, static_cast<size_t>(Rd));
          ProcessLines(FdSlot[F]);
        } else if (Rd == 0) {
          HandleExit(FdSlot[F]);
        } else if (errno != EINTR && errno != EAGAIN) {
          HandleExit(FdSlot[F]);
        }
      }
      // Requeues and freshly unblocked units may satisfy parked workers.
      for (size_t K = 0; K < Slots.size() && FatalError.empty(); ++K)
        TryServe(K);

      unsigned Running = 0;
      for (const WorkerSlot &S : Slots)
        if (S.Alive && S.Claimed >= 0)
          ++Running;
      Progress.tick(DoneCount, N, Running, Ready.size(), R.Sched, EstDone,
                    R.Sched.EstimatedSeconds - EstDone, W, false);
    }

    if (!FatalError.empty()) {
      Progress.finish();
      CleanupAll();
      R.Error = FatalError;
      R.Exit = FatalExit;
      return R;
    }
    ::signal(SIGPIPE, OldPipe);
    R.Exit = ExitAccum;
  }
  Progress.finish();

  // Entry-ordered merge: each fragment spliced in verbatim. No timing, no
  // worker identity, no schedule-dependent bytes — this is what the
  // byte-identity gate compares against the serial run, under any steal
  // order.
  std::string Merged;
  Merged += "{\"shard_schema_version\": 1, \"binaries\": [\n";
  for (size_t I = 0; I < Opt.Binaries.size(); ++I) {
    std::ifstream In(fragPath(Dir, I), std::ios::binary);
    if (!In) {
      R.Error = "missing fragment for " + Opt.Binaries[I];
      R.Exit = toExit(ExitCode::Io);
      return R;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Frag = SS.str();
    while (!Frag.empty() && Frag.back() == '\n')
      Frag.pop_back();
    Merged += Frag;
    Merged += I + 1 < Opt.Binaries.size() ? ",\n" : "\n";
  }
  Merged += "]}\n";
  R.MergedReport = std::move(Merged);
  R.Ok = true;
  return R;
}

void writeShardStatsJson(std::ostream &OS, const ShardOptions &Opt,
                         const ShardResult &R) {
  auto Num = [](double D) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6f", D);
    return std::string(Buf);
  };
  OS << "{\n"
     << "  \"shard_stats_schema_version\": 2,\n"
     << "  \"binaries\": " << Opt.Binaries.size() << ",\n"
     << "  \"shards\": " << R.ShardsResolved << ",\n"
     << "  \"auto_shards\": " << (Opt.Shards == 0 ? "true" : "false")
     << ",\n"
     << "  \"work_stealing\": " << (Opt.WorkStealing ? "true" : "false")
     << ",\n"
     << "  \"units\": " << R.Sched.UnitsTotal << ",\n"
     << "  \"scheduler\": {\n"
     << "    \"claims\": " << R.Sched.Claims << ",\n"
     << "    \"steals\": " << R.Sched.Steals << ",\n"
     << "    \"requeues\": " << R.Sched.Requeues << ",\n"
     << "    \"workers_spawned\": " << R.WorkersSpawned << ",\n"
     << "    \"workers_crashed\": " << R.WorkersCrashed << ",\n"
     << "    \"workers_retried\": " << R.WorkersRetried << "\n"
     << "  },\n"

     << "  \"cost\": {\n"
     << "    \"estimated_seconds\": " << Num(R.Sched.EstimatedSeconds)
     << ",\n"
     << "    \"observed_seconds\": " << Num(R.Sched.ObservedSeconds) << "\n"
     << "  },\n"
     << "  \"exit\": " << R.Exit << "\n"
     << "}\n";
}

} // namespace hglift::shard
