//===- harness.cpp - The hglift benchmark harness ------------------------===//
//
// Runs one benchmark workload and prints its metrics. perfbench/run.py
// builds this program and passes the arguments through:
//
//   perfbench_harness --workload paper_audit|large_fn|serve_patch
//                     --seed N --population P --seconds S --trace 0|1
//                     --hglift PATH --out DIR
//
// Everything is measured from outside the library: the harness times its
// own calls into each module's public functions (the ELF reader,
// hglift::Session, witness::attachWitnesses, hg::LiftArena, the decoder,
// the store, the serve JSONL socket) and reads the counters those calls
// already return (LiftStats, CheckResult, WitnessSummary, the daemon's
// `metrics` op). Workload rationale and metric definitions live in
// perfbench/NOTES.md.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. Everything above it is the run record, the units that
// missed their known answer and, when traced, the per-layer self-time
// table.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "corpus/Suites.h"
#include "diag/Json.h"
#include "elf/ElfReader.h"
#include "shard/LineProto.h"
#include "store/Store.h"
#include "witness/Witness.h"
#include "x86/Decoder.h"

#ifdef HGLIFT_WITH_Z3
#include <z3.h>
#endif

#include <elf.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

using namespace hglift;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

double now() {
  static const auto T0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Linear interpolation between closest ranks (numpy's default). A rank
/// that falls on an element is that element, so an infinite neighbour (a
/// refused request) does not turn it into NaN.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  double Frac = Pos - static_cast<double>(Lo);
  if (Frac == 0 || Lo + 1 == V.size())
    return V[Lo];
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Per-workload seed derivation. Seed 0 reproduces the populations the
/// repository's own benches use (Table 1 0xce5, Table 2 0xc0de, Figure 3
/// 0xf16); any other seed redraws them with the same shapes.
uint64_t derive(uint64_t Default, uint64_t Seed) {
  return Seed == 0 ? Default : splitmix(Default ^ (Seed * 0x9e3779b97f4a7c15ULL));
}

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

std::string hex(uint64_t V) {
  char B[32];
  std::snprintf(B, sizeof B, "0x%llx", static_cast<unsigned long long>(V));
  return B;
}

std::string oneLine(std::string S) {
  std::replace(S.begin(), S.end(), '\n', ' ');
  return S;
}

/// A field of /proc/<pid>/status in kB (VmHWM, VmRSS), or 0.
double procStatusKB(const char *Field, pid_t Pid = 0) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  size_t N = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, N, Field) == 0 && Line.size() > N && Line[N] == ':')
      return std::atof(Line.c_str() + N + 1);
  return 0;
}

struct ProcUsage {
  double UserS = 0, SysS = 0, MinFlt = 0;
};
ProcUsage selfUsage() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  ProcUsage U;
  U.UserS = RU.ru_utime.tv_sec + RU.ru_utime.tv_usec * 1e-6;
  U.SysS = RU.ru_stime.tv_sec + RU.ru_stime.tv_usec * 1e-6;
  U.MinFlt = static_cast<double>(RU.ru_minflt);
  return U;
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  std::vector<int> Out;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Out.push_back(C);
  return Out;
}

/// Pin the calling thread (and what it forks or spawns) to Cpus.
void pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof Set, &Set);
}

/// Steal time of the given CPUs so far, summed: the time the hypervisor
/// ran other guests while these CPUs had work (the `steal` column of their
/// /proc/stat lines).
double stealSeconds(const std::vector<int> &Cpus) {
  std::ifstream In("/proc/stat");
  double Ticks = 0;
  for (std::string L; std::getline(In, L);) {
    int Cpu;
    double F[8] = {};
    if (std::sscanf(L.c_str(), "cpu%d %lf %lf %lf %lf %lf %lf %lf %lf", &Cpu,
                    &F[0], &F[1], &F[2], &F[3], &F[4], &F[5], &F[6],
                    &F[7]) == 9 &&
        std::count(Cpus.begin(), Cpus.end(), Cpu))
      Ticks += F[7];
  }
  return Ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The host-speed probe's fixed work: fill, sort and hash 16 384 words in
/// a fresh allocation (1.3-1.7 ms on a shared 4-vCPU Xeon guest). It runs
/// no hglift code, so no change to hglift moves it.
volatile uint64_t ProbeSink;
double probeOnce() {
  double T0 = now();
  std::vector<uint64_t> V(16384);
  uint64_t X = 0x5eed;
  for (uint64_t &W : V)
    W = X = splitmix(X);
  std::sort(V.begin(), V.end());
  uint64_t H = 0;
  for (uint64_t W : V)
    H = splitmix(H ^ W);
  ProbeSink = H;
  return now() - T0;
}

/// The time metrics are in the seconds of a host on which probeOnce takes
/// ProbeRef: each is scaled by ProbeRef over the run's median probe time,
/// so that a host running this guest slower for minutes at a time (by up
/// to 40% on a shared host, with no steal on the working CPUs) moves them
/// less.
const double ProbeRef = 1e-3;

/// Times probeOnce every ProbeEvery seconds on a thread of its own, from
/// construction to stop(): a sample of how fast the host runs this guest
/// while the workload runs.
class HostProbe {
public:
  static constexpr std::chrono::milliseconds ProbeEvery{250};
  HostProbe() : Th([this] { loop(); }) {}
  ~HostProbe() { stop(); }
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;

  /// Stops sampling; returns the median probe time in seconds.
  double stop() {
    {
      std::lock_guard<std::mutex> G(Mu);
      Done = true;
    }
    Cv.notify_all();
    if (Th.joinable())
      Th.join();
    return median(Samples);
  }

private:
  void loop() {
    std::unique_lock<std::mutex> L(Mu);
    while (!Done) {
      L.unlock();
      double S = probeOnce();
      L.lock();
      Samples.push_back(S);
      Cv.wait_for(L, ProbeEvery, [this] { return Done; });
    }
  }

  std::mutex Mu; ///< guards Done and Samples
  std::condition_variable Cv;
  bool Done = false;
  std::vector<double> Samples;
  std::thread Th;
};

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Tracing: spans around every harness call into a layer, kept in memory
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  std::string Unit; ///< unit or request id shared by the spans of one unit
};

class Tracer {
public:
  bool On = false;
  std::vector<Span> Spans;

  int open(const std::string &Name, const std::string &Unit) {
    if (!On)
      return -1;
    Spans.push_back({Name, now(), 0, Cur, Unit});
    Cur = static_cast<int>(Spans.size() - 1);
    return Cur;
  }
  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = now();
    Cur = Spans[Id].Parent;
  }

private:
  int Cur = -1;
};

struct Scope {
  Tracer &T;
  int Id;
  Scope(Tracer &T, const std::string &Name, const std::string &Unit)
      : T(T), Id(T.open(Name, Unit)) {}
  ~Scope() { T.close(Id); }
};

/// Sum of each span name's duration and self time (duration minus the
/// union of its children's intervals).
struct LayerTime {
  double Total = 0, Self = 0;
  size_t Count = 0;
};
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &S) {
  std::vector<std::vector<std::pair<double, double>>> Kids(S.size());
  for (const Span &X : S)
    if (X.Parent >= 0)
      Kids[X.Parent].push_back({X.Start, X.End});
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I < S.size(); ++I) {
    std::vector<std::pair<double, double>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : K) {
      if (A > Hi) {
        Covered += std::max(0.0, Hi - Lo);
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += std::max(0.0, Hi - Lo);
    LayerTime &L = Out[S[I].Name];
    L.Total += S[I].End - S[I].Start;
    L.Self += S[I].End - S[I].Start - Covered;
    ++L.Count;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Known answers
//===----------------------------------------------------------------------===//

/// What a unit must come out as. Written by hand from what each corpus
/// builder constructs (src/corpus/Programs.h), never from hglift's output.
enum class Want { Lifted, LiftedProven, Unprovable, Concurrency, Timeout };

struct KnownAnswer {
  const char *Builder;
  Want W;
};
const KnownAnswer KnownAnswers[] = {
    // Handcrafted builders that lift (jump_table is built with
    // GuardSlack 0, i.e. a correctly guarded switch).
    {"jump_table", Want::Lifted},
    {"call_chain", Want::Lifted},
    {"callback", Want::Lifted},
    {"recursion", Want::Lifted},
    {"overlapping", Want::Lifted},
    // Return address clobbered / stack probing / ssh-style rsp restore.
    {"overflow", Want::Unprovable},
    {"stack_probe", Want::Unprovable},
    {"nonstandard_rsp", Want::Unprovable},
    // pthread_create is out of scope.
    {"spawns_thread", Want::Concurrency},
    // explodingBinary(14): 2^14 unjoinable states exceed any fuel used here.
    {"exploding", Want::Timeout},
    // corpus::randomBinary / randomLibrary: every function lifts and every
    // Step-2 theorem is proven.
    {"random", Want::LiftedProven},
};

const char *wantName(Want W) {
  switch (W) {
  case Want::Lifted:
    return "lifted";
  case Want::LiftedProven:
    return "lifted+proven";
  case Want::Unprovable:
    return "unprovable-return";
  case Want::Concurrency:
    return "concurrency";
  case Want::Timeout:
    return "timeout";
  }
  return "?";
}

std::optional<Want> knownAnswer(const std::string &Builder) {
  for (const KnownAnswer &K : KnownAnswers)
    if (Builder == K.Builder)
      return K.W;
  return std::nullopt;
}

bool meets(Want W, hg::LiftOutcome Got, bool Proven) {
  switch (W) {
  case Want::Lifted:
    return Got == hg::LiftOutcome::Lifted;
  case Want::LiftedProven:
    return Got == hg::LiftOutcome::Lifted && Proven;
  case Want::Unprovable:
    return Got == hg::LiftOutcome::UnprovableReturn;
  case Want::Concurrency:
    return Got == hg::LiftOutcome::Concurrency;
  case Want::Timeout:
    return Got == hg::LiftOutcome::Timeout;
  }
  return false;
}

/// Accepting a unit whose builder makes it unliftable is a wrong answer
/// (not a miss): the run is marked incorrect.
bool unsoundAccept(Want W, hg::LiftOutcome Got) {
  return Got == hg::LiftOutcome::Lifted && W != Want::Lifted &&
         W != Want::LiftedProven;
}

//===----------------------------------------------------------------------===//
// Batch workloads: paper_audit and large_fn
//===----------------------------------------------------------------------===//

struct Unit {
  std::string Name;    ///< binary name handed to the ELF reader
  std::string Builder; ///< corpus builder; keys the known answer
  bool Library = false;
  std::vector<uint8_t> Bytes;
};

struct BatchConfig {
  hglift::Options Opt; ///< Library is set per unit
  bool Witness = false;
};

/// Everything one pass measured; the pass's child process writes it to a
/// file for the harness to read back.
struct PassResult {
  unsigned Index = 0; ///< launch order, set by the harness
  double Seconds = 0; ///< timed wall time of the pass
  std::map<std::string, double> C;
  /// Per input, in pass order: verdict latency, time including the
  /// session's release, and the instructions of its units that met their
  /// known answer.
  std::vector<double> LatMs, InputS, InsnsOk;
  std::vector<std::string> Misses, Wrong;
  std::vector<Span> Spans;
  /// Traced only: per input, the Hoare-Graph instruction addresses (the
  /// decoder probe's work list).
  std::vector<std::vector<uint64_t>> Addrs;
  uint64_t Digest = 0; ///< sum of the reports' hashes (order-independent)
};

std::string serialize(const PassResult &P) {
  std::ostringstream OS;
  OS.precision(17);
  OS << "T " << P.Seconds << "\nD " << P.Digest << "\n";
  for (auto &[K, V] : P.C)
    OS << "C " << K << " " << V << "\n";
  for (double L : P.LatMs)
    OS << "L " << L << "\n";
  for (double X : P.InputS)
    OS << "U " << X << "\n";
  for (double X : P.InsnsOk)
    OS << "I " << X << "\n";
  for (const std::string &M : P.Misses)
    OS << "M " << oneLine(M) << "\n";
  for (const std::string &M : P.Wrong)
    OS << "W " << oneLine(M) << "\n";
  for (const Span &S : P.Spans)
    OS << "S " << S.Name << " " << S.Start << " " << S.End << " " << S.Parent
       << " " << S.Unit << "\n";
  for (const std::vector<uint64_t> &A : P.Addrs) {
    OS << "A";
    for (uint64_t X : A)
      OS << " " << X;
    OS << "\n";
  }
  return OS.str();
}

PassResult deserialize(const std::string &Text) {
  PassResult P;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.size() < 2)
      continue;
    std::istringstream L(Line.substr(2));
    switch (Line[0]) {
    case 'T':
      L >> P.Seconds;
      break;
    case 'D':
      L >> P.Digest;
      break;
    case 'C': {
      std::string K;
      double V;
      L >> K >> V;
      P.C[K] += V;
      break;
    }
    case 'L':
    case 'U':
    case 'I': {
      double V;
      L >> V;
      (Line[0] == 'L' ? P.LatMs : Line[0] == 'U' ? P.InputS : P.InsnsOk)
          .push_back(V);
      break;
    }
    case 'M':
      P.Misses.push_back(Line.substr(2));
      break;
    case 'W':
      P.Wrong.push_back(Line.substr(2));
      break;
    case 'S': {
      Span S;
      L >> S.Name >> S.Start >> S.End >> S.Parent >> S.Unit;
      P.Spans.push_back(S);
      break;
    }
    case 'A': {
      std::vector<uint64_t> A;
      uint64_t X;
      while (L >> X)
        A.push_back(X);
      P.Addrs.push_back(std::move(A));
      break;
    }
    }
  }
  return P;
}

/// Run F in a child process pinned to Cpu that writes what it measured,
/// with its own CPU time, faults and peak memory, to File.
pid_t spawnPass(const std::function<PassResult()> &F, const std::string &File,
                int Cpu) {
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;
  pinTo({Cpu});
  PassResult R;
  try {
    R = F();
  } catch (const std::exception &E) {
    // Never unwind into the parent's code in the child.
    std::fprintf(stderr, "pass failed: %s\n", E.what());
    _exit(4);
  }
  ProcUsage U = selfUsage();
  R.C["proc.user_s"] += U.UserS;
  R.C["proc.sys_s"] += U.SysS;
  R.C["proc.minflt"] += U.MinFlt;
  R.C["proc.hwm_mb"] =
      std::max(R.C["proc.hwm_mb"], procStatusKB("VmHWM") / 1024.0);
  std::ofstream Out(File, std::ios::trunc);
  Out << serialize(R);
  Out.close();
  _exit(Out ? 0 : 3);
}

/// The result of a reaped pass child, or nullopt when it failed.
std::optional<PassResult> readPass(int Status, const std::string &File) {
  std::ifstream In(File);
  std::stringstream SS;
  SS << In.rdbuf();
  fs::remove(File);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return deserialize(SS.str());
}

void addStats(std::map<std::string, double> &C, const LiftStats &S) {
  C["hg.vertices"] += S.Vertices;
  C["hg.joins"] += S.Joins;
  C["hg.widenings"] += S.Widenings;
  C["hg.fn_clock_s"] += S.Seconds;
  C["sem.steps"] += S.Steps;
  C["sem.forks"] += S.Forks;
  C["pred.leq_hits"] += S.LeqHits;
  C["pred.leq_probes"] += S.LeqHits + S.LeqMisses;
  C["smt.solver_s"] += S.SolverSeconds;
  C["smt.queries"] += S.SolverQueries;
  C["smt.z3_queries"] += S.Z3Queries;
  C["smt.tier0_hits"] += S.SolverTier0Hits;
  C["smt.tier1_hits"] += S.SolverTier1Hits;
  C["smt.class_hits"] += S.SolverClassHits;
  C["smt.tier2_hits"] += S.SolverTier2Hits;
  C["smt.tier2_skipped"] += S.SolverTier2Skipped;
  C["smt.fallthroughs"] += S.SolverFallthroughs;
  C["smt.relcache_hits"] += S.RelCacheHits;
  C["smt.relcache_probes"] += S.RelCacheHits + S.RelCacheMisses;
  C["vsa.queries"] += S.VsaQueries;
  C["vsa.resolved"] += S.VsaResolved;
  C["vsa.restarts"] += S.VsaRestarts;
}

/// Judge one verdict unit (a binary, or one exported library function)
/// against its known answer.
void judge(PassResult &P, const Unit &U, const std::string &What,
           hg::LiftOutcome Got, bool Proven, size_t Insns,
           const std::string &Why) {
  P.C["units"] += 1;
  std::optional<Want> W = knownAnswer(U.Builder);
  if (W && meets(*W, Got, Proven)) {
    P.C["units_ok"] += 1;
    P.C["insns_ok"] += static_cast<double>(Insns);
    return;
  }
  std::string Line = U.Name + What + " [" + U.Builder + "]: want " +
                     (W ? wantName(*W) : "no known answer") + ", got " +
                     hg::liftOutcomeName(Got) +
                     (Got == hg::LiftOutcome::Lifted && !Proven ? " (unproven)"
                                                                 : "") +
                     (Why.empty() ? "" : " -- " + Why);
  P.Misses.push_back(Line);
  if (W && unsoundAccept(*W, Got))
    P.Wrong.push_back(Line);
}

/// One timed unit: ELF bytes -> readElf -> Session lift/check ->
/// (witness search) -> report.
void runUnit(const Unit &U, const std::string &Id, const BatchConfig &BC,
             Tracer &T, PassResult &P) {
  double T0 = now(), Insns0 = P.C["insns_ok"], Probe = 0;
  Scope US(T, "unit", Id);
  std::optional<elf::BinaryImage> Img;
  {
    Scope S(T, "elf", Id);
    Img = elf::readElf(U.Bytes, U.Name);
  }
  P.C["elf_s"] += now() - T0;
  if (!Img) {
    P.C["failed"] += 1;
    P.Misses.push_back(U.Name + ": the ELF reader rejected the bytes");
    P.LatMs.push_back((now() - T0) * 1e3);
    P.InputS.push_back(now() - T0);
    P.InsnsOk.push_back(0);
    return;
  }
  hglift::Options O = BC.Opt;
  O.Library = U.Library;
  std::unique_ptr<Session> Sess;
  {
    Scope S(T, "api.session", Id);
    Sess = std::make_unique<Session>(*Img, O);
  }
  double L0 = now();
  const hg::BinaryResult *R;
  {
    Scope S(T, "api.lift", Id);
    R = &Sess->lift();
  }
  double L1 = now();
  const exporter::CheckResult *CR;
  {
    Scope S(T, "export.check", Id);
    CR = &Sess->check();
  }
  double L2 = now();
  if (BC.Witness) {
    Scope S(T, "witness.search", Id);
    const diag::WitnessSummary &W = witness::attachWitnesses(*Sess, &U.Bytes);
    P.C["witness.sites"] += static_cast<double>(W.Searched);
    P.C["witness.confirmed"] += static_cast<double>(W.Confirmed);
  }
  double L3 = now();
  std::ostringstream Rep;
  {
    Scope S(T, "driver.report", Id);
    Sess->writeReportJson(Rep);
  }
  double L4 = now();
  P.LatMs.push_back((L4 - T0) * 1e3);
  P.C["api.lift_s"] += L1 - L0;
  P.C["export.check_s"] += L2 - L1;
  P.C["witness.search_s"] += L3 - L2;
  P.C["driver.report_s"] += L4 - L3;
  P.C["driver.report_kb"] += static_cast<double>(Rep.str().size()) / 1024.0;
  P.C["export.theorems"] += static_cast<double>(CR->Theorems);
  P.C["inputs"] += 1;
  P.Digest += fnv1a(Rep.str()); // order-independent

  // Judge the verdict units against their known answers.
  std::set<uint64_t> Unproven;
  for (const diag::Diagnostic &D : CR->Diags)
    Unproven.insert(D.Prov.FunctionEntry);
  addStats(P.C, R->Total);
  for (const hg::FunctionResult &F : R->Functions) {
    P.C["hg.functions"] += 1;
    if (F.Arena)
      P.C["expr.nodes"] += static_cast<double>(F.ctx().numExprs());
  }
  if (!U.Library) {
    judge(P, U, "", R->Outcome, CR->allProven(), R->totalInstructions(),
          R->FailReason);
  } else {
    for (const hg::FunctionResult &F : R->Functions) {
      bool Root = false;
      for (const elf::Symbol &Sym : Img->Functions)
        Root |= Sym.Addr == F.Entry;
      if (Root)
        judge(P, U, " fn " + hex(F.Entry), F.Outcome, !Unproven.count(F.Entry),
              F.numInstructions(), F.FailReason);
    }
  }
  if (T.On) {
    // The decoder probe's work list; kept out of the pass time.
    double A0 = now();
    Scope S(T, "probe.addrs", Id);
    std::vector<uint64_t> A;
    for (const hg::FunctionResult &F : R->Functions)
      for (uint64_t X : F.Graph.instructionAddrs())
        A.push_back(X);
    P.Addrs.push_back(std::move(A));
    Probe = now() - A0;
    P.C["probe_s"] += Probe;
  }
  {
    Scope S(T, "api.release", Id);
    Sess.reset();
    Img.reset();
  }
  P.InputS.push_back(now() - T0 - Probe);
  P.InsnsOk.push_back(P.C["insns_ok"] - Insns0);
}

/// Add one input's result to its pass's.
void merge(PassResult &P, PassResult &&U) {
  for (auto &[K, V] : U.C)
    P.C[K] = K == "proc.hwm_mb" ? std::max(P.C[K], V) : P.C[K] + V;
  for (auto [To, From] : {std::pair{&P.LatMs, &U.LatMs},
                          std::pair{&P.InputS, &U.InputS},
                          std::pair{&P.InsnsOk, &U.InsnsOk}})
    To->insert(To->end(), From->begin(), From->end());
  P.Misses.insert(P.Misses.end(), U.Misses.begin(), U.Misses.end());
  P.Wrong.insert(P.Wrong.end(), U.Wrong.begin(), U.Wrong.end());
  for (std::vector<uint64_t> &A : U.Addrs)
    P.Addrs.push_back(std::move(A));
  int Base = static_cast<int>(P.Spans.size());
  for (Span &S : U.Spans) {
    S.Parent = S.Parent < 0 ? -1 : S.Parent + Base;
    P.Spans.push_back(std::move(S));
  }
  P.Digest += U.Digest;
}

/// One pass over Units in the order Perm; inputs are submitted one after
/// another, each as soon as the previous verdict is written. Every input
/// runs cold, in a fresh child of this small process: inputs run one
/// after another in one process paid page faults that depended on which
/// inputs ran before them (440 000 to 1 140 000 per paper_audit pass
/// between orders of one population, and a verdict p50 of 7 vs 20 ms,
/// measured), so the seed's order would have set the cost.
PassResult runPass(const std::vector<Unit> &Units,
                   const std::vector<size_t> &Perm, const BatchConfig &BC,
                   bool Traced, int Cpu, const std::string &Stem) {
  PassResult P;
  double Steal0 = stealSeconds({Cpu});
  double T0 = now();
  for (size_t I : Perm) {
    std::string Id = std::to_string(P.LatMs.size());
    std::string File = Stem + "-input-" + Id + ".txt";
    pid_t Pid = spawnPass(
        [&] {
          Tracer T;
          T.On = Traced;
          PassResult R;
          runUnit(Units[I], Id, BC, T, R);
          R.Spans = std::move(T.Spans);
          return R;
        },
        File, Cpu);
    int Status = 0;
    if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid)
      throw std::runtime_error("cannot start input " + Units[I].Name);
    std::optional<PassResult> U = readPass(Status, File);
    if (!U)
      throw std::runtime_error("input " + Units[I].Name + " crashed");
    merge(P, std::move(*U));
  }
  P.Seconds = now() - T0 - P.C["probe_s"];
  // The pass runs pinned to Cpu, so that CPU's steal is the pass's.
  P.C["steal_s"] = stealSeconds({Cpu}) - Steal0;
  return P;
}

/// Table 1 (Xen-shaped, 63 executables + the library rows' exported
/// functions) and Table 2 (six CoreUtils-shaped binaries).
std::vector<Unit> paperAuditInputs(uint64_t Seed) {
  std::vector<Unit> Out;
  corpus::SuiteOptions SO;
  SO.Seed = derive(SO.Seed, Seed);
  for (corpus::SuiteRow &Row : corpus::buildXenSuite(SO)) {
    for (corpus::BuiltBinary &BB : Row.Binaries) {
      Unit U;
      U.Name = BB.Name;
      // Random programs are named after their row (".../bin/prog_4",
      // ".../lib/libgen.so"); handcrafted builders by themselves.
      bool Random = BB.Name.find("/prog_") != std::string::npos ||
                    BB.Name.find("/libgen.so") != std::string::npos;
      U.Builder = Random ? "random" : BB.Name;
      U.Library = Row.IsLibrary && !BB.Img.Functions.empty();
      U.Bytes = std::move(BB.ElfBytes);
      Out.push_back(std::move(U));
    }
  }
  for (corpus::Table2Entry &E : corpus::buildCoreutilsSuite(derive(0xc0de, Seed))) {
    Unit U;
    U.Name = E.Name;
    U.Builder = "random";
    U.Bytes = std::move(E.Binary.ElfBytes);
    Out.push_back(std::move(U));
  }
  return Out;
}

/// The upper half of bench_fig3_scaling's generator: 12 single-function
/// libraries per pass, 800-3000 target instructions (log-uniform),
/// ArgWritePct 10-29, JumpTablePct 25, ExternalPct 30.
///
/// The draw is stratified on the inputs that drive a function's cost, so a
/// pass of 12 covers their whole range instead of a lucky corner: one size
/// per twelfth of the log range, and exactly half the functions with a
/// saved rbx -- emitRandomFunction's first coin flip, without which it
/// emits no writes through the pointer argument (the memory-model
/// branching Figure 3 is about). Those six get one ArgWritePct per sixth
/// of 10-29. Each stratum's member is still a uniform draw; the generator
/// seed is drawn until its first flip lands in the stratum.
std::vector<Unit> largeFnInputs(uint64_t Seed, unsigned Pass) {
  const unsigned N = 12;
  Rng R(splitmix(derive(0xf16, Seed) + Pass));
  std::vector<unsigned> WritePerm(N / 2);
  for (unsigned I = 0; I < N / 2; ++I)
    WritePerm[I] = I;
  for (unsigned I = N / 2 - 1; I > 0; --I)
    std::swap(WritePerm[I], WritePerm[R.below(I + 1)]);
  std::vector<Unit> Out;
  unsigned Writers = 0;
  bool Flip = false;
  for (unsigned I = 0; I < N; ++I) {
    // Each pair of adjacent size strata has one function of each kind.
    if (I % 2 == 0)
      Flip = R.below(2) == 0;
    bool SaveRbx = (I % 2 == 0) == Flip;
    corpus::GenOptions G;
    do
      G.Seed = R.next();
    while (Rng(G.Seed).chance(1, 2) != SaveRbx);
    G.NumFuncs = 1;
    double Frac = (I + static_cast<double>(R.below(1000)) / 1000.0) / N;
    G.TargetInstrs =
        static_cast<unsigned>(800.0 * std::pow(3000.0 / 800.0, Frac));
    G.ArgWritePct =
        SaveRbx ? 10 + (WritePerm[Writers] * 20 +
                        static_cast<unsigned>(R.below(20))) / (N / 2)
                : 10 + static_cast<unsigned>(R.below(20));
    Writers += SaveRbx;
    G.JumpTablePct = 25;
    G.ExternalPct = 30;
    G.Name = "large_fn_" + std::to_string(Pass) + "_" + std::to_string(I);
    std::optional<corpus::BuiltBinary> BB = corpus::randomLibrary(G);
    if (!BB)
      continue;
    Unit U;
    U.Name = G.Name;
    U.Builder = "random";
    U.Library = true;
    U.Bytes = std::move(BB->ElfBytes);
    Out.push_back(std::move(U));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Traced probes (run after the timed phase; excluded from the overhead)
//===----------------------------------------------------------------------===//

/// Start Argv[0] with Argv, standard output and error into Log.
pid_t spawnTo(std::vector<std::string> Argv, const std::string &Log) {
  std::vector<char *> CArgv;
  for (std::string &S : Argv)
    CArgv.push_back(S.data());
  CArgv.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  pid_t Pid = -1;
  if (posix_spawn(&Pid, CArgv[0], &FA, nullptr, CArgv.data(), environ) != 0)
    Pid = -1;
  posix_spawn_file_actions_destroy(&FA);
  return Pid;
}

/// Arenas the probe holds alive at once (each is ~17 MB).
const size_t ArenaProbeMax = 16;

/// The arena probe proper, in a freshly started harness (`--probe-arena
/// FILE --probe-count N`) so that its heap starts empty: construct N
/// hg::LiftArenas and keep them all alive, as a pass does while it holds a
/// library's results. Prints the median construction time (ms) and the RSS
/// growth per arena (MB).
int arenaProbeMain(const std::string &File, size_t N) {
  std::optional<elf::BinaryImage> Img = elf::readElfFile(File);
  if (!Img || N == 0)
    return 1;
  hg::LiftConfig Cfg;
  std::vector<std::unique_ptr<hg::LiftArena>> Alive;
  std::vector<double> Ms;
  double Rss0 = procStatusKB("VmRSS");
  for (size_t I = 0; I < N; ++I) {
    double T0 = now();
    Alive.push_back(std::make_unique<hg::LiftArena>(*Img, Cfg));
    Ms.push_back((now() - T0) * 1e3);
  }
  double Mb = (procStatusKB("VmRSS") - Rss0) / 1024.0 / static_cast<double>(N);
  std::printf("%.17g %.17g\n", median(Ms), Mb);
  return 0;
}

/// One hg::LiftArena per function the pass lifted, up to ArenaProbeMax.
void arenaProbe(const std::vector<uint8_t> &Bytes, size_t Functions,
                const std::string &Dir, std::map<std::string, double> &Out) {
  std::string Elf = Dir + "/arena-probe.elf", Res = Dir + "/arena-probe.txt";
  writeFile(Elf, Bytes);
  size_t N = std::clamp<size_t>(Functions, 1, ArenaProbeMax);
  pid_t Pid = spawnTo({"/proc/self/exe", "--probe-arena", Elf, "--probe-count",
                       std::to_string(N)},
                      Res);
  int Status = 0;
  if (Pid > 0 && waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status) &&
      WEXITSTATUS(Status) == 0) {
    std::ifstream In(Res);
    In >> Out["smt.arena_new_ms"] >> Out["smt.arena_mb"];
  }
  fs::remove(Elf);
  fs::remove(Res);
}

/// Decode every Hoare-Graph instruction address of the pass with the public
/// decoder; median of three sweeps.
void decodeProbe(const std::vector<Unit> &Units,
                 const std::vector<std::vector<uint64_t>> &Addrs,
                 std::map<std::string, double> &Out) {
  std::vector<std::pair<elf::BinaryImage, const std::vector<uint64_t> *>> Work;
  for (size_t I = 0; I < Units.size() && I < Addrs.size(); ++I)
    if (std::optional<elf::BinaryImage> Img = elf::readElf(Units[I].Bytes))
      Work.push_back({std::move(*Img), &Addrs[I]});
  std::vector<double> NsPer;
  size_t Count = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    volatile unsigned Sink = 0;
    Count = 0;
    double T0 = now();
    for (auto &[Img, A] : Work)
      for (uint64_t X : *A) {
        size_t Avail = 0;
        if (const uint8_t *B = Img.bytesAt(X, Avail)) {
          Sink = Sink + x86::decodeInstr(B, Avail, X).Length;
          ++Count;
        }
      }
    NsPer.push_back((now() - T0) * 1e9 / std::max<size_t>(Count, 1));
  }
  Out["x86.decode_ns_per_insn"] = median(NsPer);
  Out["x86.decoded"] = static_cast<double>(Count);
}

//===----------------------------------------------------------------------===//
// Results shared by every workload
//===----------------------------------------------------------------------===//

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, double> E2E;   ///< end-to-end metrics
  std::map<std::string, double> Layer; ///< per-layer metrics
  std::vector<std::string> Misses, Wrong;
  std::vector<Span> Spans;
  std::vector<std::string> Notes;
  /// CPU time and minor faults of the working process (the pass children,
  /// or the daemon during the timed phase).
  double WorkUser = 0, WorkSys = 0, WorkMinflt = 0;
  /// Steal time taken out of the timed seconds (see insns_per_s), and
  /// over the whole run on all CPUs (a shared machine's noise).
  double WorkSteal = 0, StealS = 0;
  /// The run's median host-probe time, and the factor the time metrics
  /// were scaled by.
  double ProbeS = 0, TimeScale = 1;
};

struct Args {
  std::string Workload;
  /// Draws the order of a pass's inputs (batch) or the patch stream
  /// (serve_patch).
  uint64_t Seed = 0;
  /// Draws the population itself; 0 = the default populations.
  uint64_t Population = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Hglift, Out;
  /// The working processes' CPUs (one per batch lane, or the daemon's two)
  /// and the harness's own, the rest.
  std::vector<int> WorkCpus, HarnessCpus;
};

/// How often a batch run repeats its set-up while its passes run.
const double SetupEvery = 0.3;

void layerCounters(const std::map<std::string, double> &C, RunResult &RR) {
  auto Get = [&](const char *K) {
    auto It = C.find(K);
    return It == C.end() ? 0.0 : It->second;
  };
  for (const char *K :
       {"api.lift_s", "hg.fn_clock_s", "hg.functions", "hg.vertices",
        "hg.joins", "hg.widenings", "sem.steps", "sem.forks",
        "pred.leq_probes", "expr.nodes", "smt.solver_s", "smt.queries",
        "smt.z3_queries", "smt.tier0_hits", "smt.tier1_hits",
        "smt.class_hits", "smt.tier2_hits", "smt.tier2_skipped",
        "smt.fallthroughs", "vsa.queries", "vsa.resolved", "vsa.restarts",
        "export.check_s", "export.theorems", "witness.search_s",
        "witness.sites", "witness.confirmed", "driver.report_kb",
        "proc.sys_s", "proc.minflt"})
    RR.Layer[K] = Get(K);
  // Lift time outside every function's clock and outside the store.
  RR.Layer["hg.unclocked_s"] = Get("api.lift_s") - Get("hg.fn_clock_s") -
                               Get("store.lookup_s") - Get("store.write_s");
  RR.Layer["pred.leq_memo_hit_ratio"] =
      ratio(Get("pred.leq_hits"), Get("pred.leq_probes"));
  RR.Layer["smt.relcache_hit_ratio"] =
      ratio(Get("smt.relcache_hits"), Get("smt.relcache_probes"));
  RR.Layer["export.theorems_per_s"] =
      ratio(Get("export.theorems"), Get("export.check_s"));
  RR.Layer["driver.report_ms"] =
      1e3 * ratio(Get("driver.report_s"), Get("inputs"));
}

/// large_fn's population: this many passes of 12 functions, about what
/// two lanes finish in one run.
const unsigned LargeFnPasses = 8;

void shuffle(std::vector<size_t> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

RunResult runBatch(const Args &A) {
  RunResult RR;
  bool Paper = A.Workload == "paper_audit";
  BatchConfig BC;
  BC.Opt.Lift.Threads = 1;
  BC.Opt.Lift.MaxSeconds = 0; // vertex fuel bounds the work, never the wall
  BC.Opt.Lift.MaxVertices = Paper ? 4000 : 20000;
  BC.Witness = Paper;

  // Set-up: generating the population. paper_audit's population is one
  // pass, repeated; large_fn's is LargeFnPasses passes of 12 functions.
  // setup_s is the median set-up time over the run: one set-up takes a
  // few milliseconds and reads up to 60% slower when the host is busy on
  // its vCPU at that moment, so the harness repeats it every SetupEvery
  // seconds while its passes run (it only waits for them otherwise).
  std::vector<double> SetupSecs;
  auto SetUp = [&] {
    double T0 = now();
    std::vector<std::vector<Unit>> P;
    if (Paper)
      P.push_back(paperAuditInputs(A.Population));
    else
      for (unsigned I = 0; I < LargeFnPasses; ++I)
        P.push_back(largeFnInputs(A.Population, I));
    SetupSecs.push_back(now() - T0);
    return P;
  };
  std::vector<std::vector<Unit>> Pop = SetUp();

  // The run seed draws the order: which population pass each pass runs,
  // and the order of its inputs.
  Rng Order(derive(0x0bde, A.Seed));
  std::vector<size_t> PassOrder(Pop.size());
  for (size_t I = 0; I < PassOrder.size(); ++I)
    PassOrder[I] = I;
  shuffle(PassOrder, Order);
  auto InputOrder = [&](size_t N) {
    std::vector<size_t> Perm(N);
    for (size_t I = 0; I < N; ++I)
      Perm[I] = I;
    shuffle(Perm, Order);
    return Perm;
  };

  // Timed phase: cold passes in fresh processes, in whole rounds over the
  // population (at least one) until the time is spent, so every run
  // measures the same work. large_fn runs two single-threaded lanes side
  // by side (its per-function cost is heavy-tailed, so a run needs many
  // functions); paper_audit one.
  const unsigned Lanes = Paper ? 1 : 2;
  // Each lane runs pinned to a CPU of its own, so that CPU's steal time is
  // its pass's.
  std::vector<int> FreeCpus = A.WorkCpus;
  std::vector<PassResult> Passes;
  std::map<pid_t, std::pair<unsigned, int>> Running; // pid -> (pass, CPU)
  std::vector<std::pair<size_t, std::vector<size_t>>> Plan; // pass -> (population pass, order)
  double Start = now(), PassSum = 0, FirstPassFunctions = 0;
  std::vector<std::vector<uint64_t>> FirstPassAddrs;
  auto Launch = [&] {
    unsigned Pass = static_cast<unsigned>(Plan.size());
    size_t Which = PassOrder[Pass % PassOrder.size()];
    Plan.push_back({Which, InputOrder(Pop[Which].size())});
    const std::vector<Unit> &In = Pop[Which];
    const std::vector<size_t> &Perm = Plan.back().second;
    int Cpu = FreeCpus.back();
    FreeCpus.pop_back();
    std::string Stem = A.Out + "/pass-" + std::to_string(Pass);
    pid_t Pid =
        spawnPass([&] { return runPass(In, Perm, BC, A.Trace, Cpu, Stem); },
                  Stem + ".txt", Cpu);
    if (Pid > 0)
      Running[Pid] = {Pass, Cpu};
  };
  for (unsigned L = 0; L < Lanes; ++L)
    Launch();
  double NextSetUp = now() + SetupEvery;
  while (!Running.empty()) {
    int Status = 0;
    pid_t Pid = waitpid(-1, &Status, WNOHANG);
    if (Pid == 0) {
      if (now() >= NextSetUp) {
        SetUp();
        NextSetUp = now() + SetupEvery;
      } else {
        usleep(2000);
      }
      continue;
    }
    if (!Running.count(Pid))
      continue;
    auto [Pass, Cpu] = Running[Pid];
    Running.erase(Pid);
    FreeCpus.push_back(Cpu);
    std::optional<PassResult> P =
        readPass(Status, A.Out + "/pass-" + std::to_string(Pass) + ".txt");
    if (!P) {
      RR.Correct = false;
      RR.Notes.push_back("pass " + std::to_string(Pass) + " crashed");
      continue;
    }
    PassSum += P->Seconds;
    P->Index = Pass;
    if (Pass == 0) {
      FirstPassAddrs = P->Addrs;
      FirstPassFunctions = P->C["hg.functions"];
    }
    Passes.push_back(std::move(*P));
    double Rounds = static_cast<double>(Plan.size()) / Pop.size();
    if (Plan.size() % Pop.size() != 0 ||
        (now() - Start) * (1 + 0.5 / Rounds) <= A.Seconds)
      Launch();
  }
  if (Passes.empty())
    throw std::runtime_error("no pass completed");

  std::map<std::string, double> C;
  std::vector<double> Hwm;
  std::set<std::string> Wrong;
  // Per input (population pass, index): its times in each pass, scaled by
  // the share of that pass its CPU was not stolen.
  std::map<std::pair<size_t, size_t>, std::vector<double>> InputS, InputLat;
  std::map<std::pair<size_t, size_t>, double> InputInsns;
  for (size_t I = 0; I < Passes.size(); ++I) {
    PassResult &P = Passes[I];
    for (auto &[K, V] : P.C)
      C[K] += V;
    const auto &[Which, Perm] = Plan[P.Index];
    double Share = 1 - ratio(P.C["steal_s"], P.Seconds);
    for (size_t J = 0; J < Perm.size(); ++J) {
      std::pair<size_t, size_t> K{Which, Perm[J]};
      InputS[K].push_back(P.InputS[J] * Share);
      InputLat[K].push_back(P.LatMs[J] * Share);
      InputInsns[K] = P.InsnsOk[J];
    }
    Hwm.push_back(P.C["proc.hwm_mb"]);
    RR.Misses.insert(RR.Misses.end(), P.Misses.begin(), P.Misses.end());
    Wrong.insert(P.Wrong.begin(), P.Wrong.end());
    int Base = static_cast<int>(RR.Spans.size());
    for (Span S : P.Spans) {
      S.Parent = S.Parent < 0 ? -1 : S.Parent + Base;
      S.Unit = std::to_string(I) + "." + S.Unit;
      RR.Spans.push_back(std::move(S));
    }
    // paper_audit repeats one population: every pass must write the same
    // reports.
    if (Paper && P.Digest != Passes.front().Digest) {
      RR.Correct = false;
      RR.Notes.push_back("reports differ between passes of one population");
    }
  }
  RR.Wrong.assign(Wrong.begin(), Wrong.end());
  if (!Wrong.empty())
    RR.Correct = false;

  RR.Attempted = static_cast<uint64_t>(C["units"]);
  RR.Failed += static_cast<uint64_t>(C["failed"]);
  // An input's time is the median over the rounds of its steal-scaled
  // times, so a pass that met a burst of host load is outvoted. Per lift
  // thread: the inputs' instructions over their times. The latency
  // percentiles are over every steal-scaled verdict latency.
  double Secs = 0, Insns = 0;
  std::vector<double> Lat;
  for (auto &[K, V] : InputS) {
    Secs += median(V);
    Insns += InputInsns[K];
    Lat.insert(Lat.end(), InputLat[K].begin(), InputLat[K].end());
  }
  RR.WorkSteal = C["steal_s"];
  RR.E2E["insns_per_s"] = ratio(Insns, Secs);
  RR.E2E["ok_share"] = ratio(C["units_ok"], C["units"]);
  // Without a witness search no site is left unwitnessed.
  RR.E2E["witnessed_share"] =
      BC.Witness ? ratio(C["witness.confirmed"], C["witness.sites"]) : 1.0;
  RR.E2E["verdict_p50_ms"] = quantile(Lat, 0.50);
  RR.E2E["verdict_p95_ms"] = quantile(Lat, 0.95);
  RR.E2E["peak_rss_mb"] = median(Hwm);
  RR.E2E["setup_s"] = median(SetupSecs);
  std::string PassSecs;
  for (PassResult &P : Passes) {
    char B[64];
    std::snprintf(B, sizeof B, " %.3f (steal %.2f)", P.Seconds,
                  P.C["steal_s"]);
    PassSecs += B;
  }
  RR.Notes.push_back("pass seconds:" + PassSecs + "; wall-clock rate over " +
                     "whole passes " +
                     std::to_string(ratio(C["insns_ok"], PassSum)) + " insn/s");
  RR.Notes.push_back(
      std::to_string(Passes.size()) + " cold pass(es) on " +
      std::to_string(Lanes) + " lane(s), " + std::to_string(InputS.size()) +
      " distinct inputs timed " + std::to_string(Lat.size()) + " times, " +
      std::to_string(RR.Attempted) + " verdict units, " +
      std::to_string(PassSum) + " s of passes in " +
      std::to_string(now() - Start) + " s, " +
      std::to_string(SetupSecs.size()) + " set-ups" +
      (BC.Witness ? ", " + std::to_string(int(C["witness.sites"])) +
                        " witness sites searched"
                  : ", no witness search"));

  RR.WorkUser = C["proc.user_s"];
  RR.WorkSys = C["proc.sys_s"];
  RR.WorkMinflt = C["proc.minflt"];
  // Per-layer counters are per pass.
  for (auto &[K, V] : C)
    V /= static_cast<double>(Passes.size());
  layerCounters(C, RR);
  RR.Layer["elf.parse_ms"] = 1e3 * ratio(C["elf_s"], C["inputs"]);
  if (A.Trace) {
    // The first pass to finish is not necessarily pass 0; probe the
    // population pass whose addresses it recorded.
    const std::vector<Unit> &In = Pop[Plan[0].first];
    std::vector<Unit> Ordered;
    for (size_t I : Plan[0].second)
      Ordered.push_back(In[I]);
    arenaProbe(In.front().Bytes,
               static_cast<size_t>(FirstPassFunctions), A.Out, RR.Layer);
    decodeProbe(Ordered, FirstPassAddrs, RR.Layer);
  }
  return RR;
}

//===----------------------------------------------------------------------===//
// serve_patch
//===----------------------------------------------------------------------===//

int connectUnix(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un SA{};
  SA.sun_family = AF_UNIX;
  std::snprintf(SA.sun_path, sizeof SA.sun_path, "%s", Path.c_str());
  if (connect(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof SA) != 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

/// A JSONL connection to the daemon, framed like serve's own side.
class Conn {
public:
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      close(Fd);
  }
  bool ok() const { return Fd >= 0; }
  bool send(const std::string &Line) { return shard::writeAll(Fd, Line + "\n"); }
  std::optional<std::string> line() { return shard::readLineBlocking(Fd, Buf); }

private:
  int Fd;
  std::string Buf;
};

/// The event name of a response line, without parsing the whole line.
std::string eventOf(const std::string &L) {
  size_t P = L.find("\"event\":\"");
  if (P == std::string::npos)
    return "";
  P += 9;
  return L.substr(P, L.find('"', P) - P);
}

struct Daemon {
  pid_t Pid = -1;
  std::string Dir, Socket;
};

/// Start a daemon pinned to Cpus (the calling thread keeps its own CPUs).
std::optional<Daemon> startDaemon(const Args &A, const std::string &Dir,
                                  const std::vector<int> &Cpus) {
  Daemon D;
  D.Dir = Dir;
  // Relative to the working directory the daemon shares with the
  // harness: a socket path must fit in sun_path (108 bytes).
  D.Socket = fs::relative(Dir + "/s.sock").string();
  fs::create_directories(Dir + "/cache");
  std::vector<int> Own = allowedCpus();
  pinTo(Cpus);
  D.Pid = spawnTo({A.Hglift, "serve", "--socket", D.Socket, "--threads", "2",
                   "--max-insns", "4000", "--cache-dir", Dir + "/cache"},
                  Dir + "/daemon.log");
  pinTo(Own);
  if (D.Pid < 0)
    return std::nullopt;
  // Polled every millisecond: the wait is part of a timed set-up.
  for (int I = 0; I < 10000; ++I) {
    int Fd = connectUnix(D.Socket);
    if (Fd >= 0) {
      close(Fd);
      return D;
    }
    if (waitpid(D.Pid, nullptr, WNOHANG) == D.Pid)
      return std::nullopt;
    usleep(1000);
  }
  kill(D.Pid, SIGKILL);
  waitpid(D.Pid, nullptr, 0);
  return std::nullopt;
}

/// Drain the daemon with a `shutdown` request and reap it (killed after
/// ten seconds).
void stopDaemon(Daemon &D) {
  {
    Conn C(connectUnix(D.Socket));
    if (C.ok() && C.send("{\"op\":\"shutdown\",\"id\":\"stop\"}"))
      while (std::optional<std::string> L = C.line())
        if (eventOf(*L) == "done")
          break;
  }
  for (int I = 0; I < 1000; ++I) {
    if (waitpid(D.Pid, nullptr, WNOHANG) == D.Pid)
      return;
    usleep(10000);
  }
  kill(D.Pid, SIGKILL);
  waitpid(D.Pid, nullptr, 0);
}

/// One `check` over a connection; returns the result line, or the
/// terminal event when there was none.
struct Reply {
  std::string Terminal;   ///< done / error / rejected / (empty: lost)
  std::string ResultLine; ///< the `result` line, when one came
  double AcceptedAt = 0, ResultAt = 0, DoneAt = 0;
};
Reply checkRequest(Conn &C, const std::string &Id, const std::string &File) {
  Reply R;
  std::string Req = "{\"op\":\"check\",\"id\":\"" + Id + "\",\"file\":\"" +
                    diag::jsonEscape(File) + "\",\"library\":true}";
  if (!C.send(Req))
    return R;
  while (std::optional<std::string> L = C.line()) {
    std::string Ev = eventOf(*L);
    if (Ev == "accepted") {
      R.AcceptedAt = now();
    } else if (Ev == "result") {
      R.ResultAt = now();
      R.ResultLine = std::move(*L);
    } else if (Ev == "done" || Ev == "error" || Ev == "rejected") {
      R.DoneAt = now();
      R.Terminal = Ev;
      break;
    }
  }
  return R;
}

/// The file offsets of the 4 immediate bytes of every decoded
/// `mov r64, imm32` (REX.W C7 /0 id) in the exported functions: the
/// immediates a patch may rewrite.
std::vector<size_t> patchSites(const std::vector<uint8_t> &Bytes,
                               const elf::BinaryImage &Img) {
  // vaddr -> file offset through the program headers.
  std::vector<std::pair<uint64_t, Elf64_Phdr>> Loads;
  Elf64_Ehdr EH;
  std::memcpy(&EH, Bytes.data(), sizeof EH);
  for (unsigned I = 0; I < EH.e_phnum; ++I) {
    Elf64_Phdr PH;
    std::memcpy(&PH, Bytes.data() + EH.e_phoff + I * EH.e_phentsize, sizeof PH);
    if (PH.p_type == PT_LOAD)
      Loads.push_back({PH.p_vaddr, PH});
  }
  auto FileOff = [&](uint64_t VA) -> std::optional<size_t> {
    for (auto &[V, PH] : Loads)
      if (VA >= V && VA < V + PH.p_filesz)
        return static_cast<size_t>(PH.p_offset + (VA - V));
    return std::nullopt;
  };
  std::vector<uint64_t> Starts;
  for (const elf::Symbol &S : Img.Functions)
    Starts.push_back(S.Addr);
  std::sort(Starts.begin(), Starts.end());
  std::vector<size_t> Out;
  for (size_t F = 0; F < Starts.size(); ++F) {
    uint64_t A = Starts[F];
    size_t Avail = 0;
    const uint8_t *B = Img.bytesAt(A, Avail);
    if (!B)
      continue;
    uint64_t End = F + 1 < Starts.size() ? Starts[F + 1] : A + Avail;
    while (A < End) {
      const uint8_t *P = Img.bytesAt(A, Avail);
      x86::Instr I = x86::decodeInstr(P, Avail, A);
      if (!I.isValid() || I.Length == 0)
        break;
      if (I.Mn == x86::Mnemonic::Mov && I.Length == 7 && P[1] == 0xc7 &&
          I.Ops[0].isReg() && I.Ops[0].Size == 8 && I.Ops[1].isImm())
        if (std::optional<size_t> Off = FileOff(A + 3))
          Out.push_back(*Off);
      A += I.Length;
    }
  }
  return Out;
}

/// The per-function verdicts of one served report.
struct ServedVerdicts {
  size_t Functions = 0, Ok = 0;
  double InsnsOk = 0;
  std::vector<std::string> Misses;
  bool Parsed = false;
};
ServedVerdicts judgeServed(const std::string &ResultLine,
                           std::string *ReportOut) {
  ServedVerdicts V;
  std::optional<diag::JValue> Line = diag::parseJson(ResultLine);
  if (!Line)
    return V;
  std::string Report = Line->str("report");
  std::optional<diag::JValue> Rep = diag::parseJson(Report);
  if (!Rep)
    return V;
  if (ReportOut)
    *ReportOut = Report;
  V.Parsed = true;
  std::set<std::string> Unproven;
  if (const diag::JValue *Chk = Rep->get("check"))
    if (const diag::JValue *Ds = Chk->get("diagnostics"))
      for (const diag::JValue &D : Ds->Arr)
        if (const diag::JValue *P = D.get("provenance"))
          Unproven.insert(P->str("function"));
  if (const diag::JValue *Fs = Rep->get("functions"))
    for (const diag::JValue &F : Fs->Arr) {
      ++V.Functions;
      std::string Entry = F.str("entry"), Outcome = F.str("outcome");
      // Every function is a corpus::randomLibrary function: lifted, with
      // every Step-2 theorem proven.
      if (Outcome == "lifted" && !Unproven.count(Entry)) {
        ++V.Ok;
        V.InsnsOk += F.num("instructions");
      } else {
        V.Misses.push_back("fn " + Entry +
                           " [random]: want lifted+proven, got " + Outcome +
                           (Unproven.count(Entry) ? " (unproven)" : "") +
                           " -- " + F.str("fail_reason"));
      }
    }
  return V;
}

/// A hglift store whose public lookup/store calls are timed (the traced
/// replay's store layer).
class TimedStore : public store::CacheStore {
public:
  TimedStore(Options O, Tracer &T) : CacheStore(std::move(O)), T(T) {}
  std::string Unit;
  std::optional<hg::FunctionResult> lookup(const elf::BinaryImage &Img,
                                           const hg::LiftConfig &Cfg,
                                           uint64_t Entry) override {
    Scope S(T, "store.lookup", Unit);
    return CacheStore::lookup(Img, Cfg, Entry);
  }
  void store(const elf::BinaryImage &Img, const hg::LiftConfig &Cfg,
             const hg::FunctionResult &F) override {
    Scope S(T, "store.write", Unit);
    CacheStore::store(Img, Cfg, F);
  }

private:
  Tracer &T;
};

/// The serve_patch base library: 24 functions with the Table 1 `.../lib`
/// row's generator mix (corpus/Suites.cpp).
std::optional<corpus::BuiltBinary> serveBase(uint64_t Seed) {
  corpus::GenOptions G;
  G.Seed = derive(0x5e7, Seed);
  G.NumFuncs = 24;
  G.TargetInstrs = corpus::SuiteOptions().MeanFuncSize;
  G.JumpTablePct = 8;
  G.ExternalPct = 30;
  G.CallbackPct = 25;
  G.UnresJumpPct = 12;
  G.Name = "patchlib.so";
  return corpus::randomLibrary(G);
}

/// Request I's bytes: the base with one decoded `mov r64, imm32` rewritten
/// to 1001 + I, so every request differs (the whole-file memo never
/// answers) and the value stays a positive non-zero constant like the
/// generator's own (-1000..1000 operands, 1..100 divisors).
std::vector<uint8_t> patched(const std::vector<uint8_t> &Base,
                             const std::vector<size_t> &Sites,
                             uint64_t Seed, uint64_t I) {
  std::vector<uint8_t> B = Base;
  size_t Off = Sites[splitmix(Seed ^ (I * 0x2545f4914f6cdd1dULL)) %
                     Sites.size()];
  uint32_t V = static_cast<uint32_t>(1001 + I);
  std::memcpy(B.data() + Off, &V, 4);
  return B;
}

/// CPU seconds and minor faults of another process, from /proc/<pid>/stat.
ProcUsage usageOfPid(pid_t Pid) {
  ProcUsage U;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)), {});
  size_t Paren = Text.rfind(')');
  if (Paren == std::string::npos)
    return U;
  std::istringstream F(Text.substr(Paren + 2));
  std::vector<std::string> Field;
  for (std::string X; F >> X;)
    Field.push_back(X);
  if (Field.size() < 13)
    return U;
  double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  U.MinFlt = std::atof(Field[7].c_str());
  U.UserS = std::atof(Field[11].c_str()) / Tick;
  U.SysS = std::atof(Field[12].c_str()) / Tick;
  return U;
}

/// The daemon's `metrics` cache counters.
std::map<std::string, double> storeCounters(const Daemon &D) {
  std::map<std::string, double> Out;
  Conn C(connectUnix(D.Socket));
  if (C.ok() && C.send("{\"op\":\"metrics\",\"id\":\"m\"}"))
    if (std::optional<std::string> L = C.line())
      if (std::optional<diag::JValue> M = diag::parseJson(*L))
        if (const diag::JValue *Cache = M->get("cache"))
          for (const char *K :
               {"hits", "misses", "stored", "validated", "validation_failures"})
            Out[std::string("store.") + K] = Cache->num(K);
  return Out;
}

/// Options a daemon Session runs a `check` request with (serve defaults:
/// --max-seconds 60, --max-insns 4000, one thread).
hglift::Options servedOptions() {
  hglift::Options O;
  O.Library = true;
  O.Lift.MaxSeconds = 60;
  O.Lift.MaxVertices = 4000;
  return O;
}

/// Traced only: replay the first requests in-process through a Session
/// sharing one store (a copy of the warmed store), which splits store
/// lookup plus Step-2 revalidation from the edited function's lift.
void replay(const std::vector<uint8_t> &Base,
            const std::vector<size_t> &Sites, uint64_t Seed,
            const std::string &StoreDir, unsigned Requests, Tracer &T,
            std::map<std::string, double> &C,
            std::vector<std::vector<uint64_t>> &Addrs) {
  store::CacheStore::Options SO;
  SO.Dir = StoreDir;
  TimedStore Store(SO, T);
  for (unsigned I = 0; I < Requests; ++I) {
    std::string Id = "r" + std::to_string(I);
    Store.Unit = Id;
    std::vector<uint8_t> Bytes = patched(Base, Sites, Seed, I);
    Scope Root(T, "replay", Id);
    double T0 = now();
    std::optional<elf::BinaryImage> Img;
    {
      Scope S(T, "elf", Id);
      Img = elf::readElf(Bytes, "replay.so");
    }
    C["elf_s"] += now() - T0;
    if (!Img)
      continue;
    hglift::Options O = servedOptions();
    O.Cache.Shared = &Store;
    std::unique_ptr<Session> Sess;
    {
      Scope S(T, "api.session", Id);
      Sess = std::make_unique<Session>(*Img, O);
    }
    double L0 = now();
    const hg::BinaryResult *R;
    {
      Scope S(T, "api.lift", Id);
      R = &Sess->lift();
    }
    double L1 = now();
    const exporter::CheckResult *CR;
    {
      Scope S(T, "export.check", Id);
      CR = &Sess->check();
    }
    double L2 = now();
    std::ostringstream Rep;
    {
      Scope S(T, "driver.report", Id);
      Sess->writeReportJson(Rep);
    }
    double L3 = now();
    C["inputs"] += 1;
    C["api.lift_s"] += L1 - L0;
    C["export.check_s"] += L2 - L1;
    C["driver.report_s"] += L3 - L2;
    C["driver.report_kb"] += static_cast<double>(Rep.str().size()) / 1024.0;
    C["export.theorems"] += static_cast<double>(CR->Theorems);
    addStats(C, R->Total);
    std::vector<uint64_t> A;
    for (const hg::FunctionResult &F : R->Functions) {
      C["hg.functions"] += 1;
      if (F.Arena)
        C["expr.nodes"] += static_cast<double>(F.ctx().numExprs());
      for (uint64_t X : F.Graph.instructionAddrs())
        A.push_back(X);
    }
    Addrs.push_back(std::move(A));
    {
      Scope S(T, "api.release", Id);
      Sess.reset();
    }
  }
  for (const Span &S : T.Spans)
    if (S.Name == "store.lookup" || S.Name == "store.write")
      C[S.Name + "_s"] += S.End - S.Start;
}

RunResult runServe(const Args &A) {
  RunResult RR;
  std::string Work = A.Out + "/serve";
  fs::remove_all(Work);
  fs::create_directories(Work);
  const unsigned Clients = 2, MinRequests = 200, SampleSize = 3,
                 ReplayRequests = 24, SetupsBefore = 3, SetupsAfter = 4;
  // The daemon runs on two CPUs of its own (one per worker), so those two
  // CPUs' steal is the daemon's.
  const std::vector<int> &DaemonCpus = A.WorkCpus;

  // Set-up: generate the base library, start the daemon, cold `check` of
  // the base that fills the store. setup_s is the median set-up time over
  // the run: SetupsBefore set-ups before the timed phase (the last one's
  // daemon serves it) and SetupsAfter after it, so that, like the other
  // metrics, it samples the host across the run. Stopping a daemon is not
  // part of a set-up.
  struct Served {
    corpus::BuiltBinary Base;
    std::vector<size_t> Sites;
    Daemon D;
  };
  std::vector<double> SetupSecs;
  int Round = 0;
  auto SetUp = [&]() -> std::optional<Served> {
    std::string Dir = Work + "/d" + std::to_string(Round++);
    double T0 = now();
    std::optional<corpus::BuiltBinary> Base = serveBase(A.Population);
    std::optional<Daemon> Dm =
        Base ? startDaemon(A, Dir, DaemonCpus) : std::nullopt;
    if (!Dm)
      return std::nullopt;
    std::string File = fs::absolute(Dir + "/base.so").string();
    writeFile(File, Base->ElfBytes);
    bool Ok;
    {
      Conn C(connectUnix(Dm->Socket));
      Ok = C.ok() && checkRequest(C, "base", File).Terminal == "done";
    }
    std::vector<size_t> Sites = patchSites(Base->ElfBytes, Base->Img);
    double Secs = now() - T0;
    if (!Ok || Sites.empty()) {
      stopDaemon(*Dm);
      return std::nullopt;
    }
    SetupSecs.push_back(Secs);
    return Served{std::move(*Base), std::move(Sites), *Dm};
  };
  std::optional<Served> S0;
  for (unsigned I = 0; I < SetupsBefore; ++I) {
    if (S0)
      stopDaemon(S0->D);
    if (!(S0 = SetUp()))
      throw std::runtime_error("serve_patch set-up failed (see " + Work +
                               "/d*/daemon.log)");
  }
  const corpus::BuiltBinary *Base = &S0->Base;
  const std::vector<size_t> &Sites = S0->Sites;
  Daemon *D = &S0->D;

  // The traced replay runs against a copy of the warmed store.
  std::string StoreCopy = Work + "/replay-store";
  if (A.Trace)
    fs::copy(D->Dir + "/cache", StoreCopy, fs::copy_options::recursive);
  std::map<std::string, double> Store0 = storeCounters(*D);
  ProcUsage Use0 = usageOfPid(D->Pid);

  // Timed phase: closed-loop clients, each waiting for its reply before
  // sending the next request. It ends once the time is spent and at least
  // MinRequests have completed, so at least ten lie beyond p95.
  struct Sent {
    uint64_t Index;
    unsigned Client;
    double At;
    Reply R;
  };
  std::mutex Mu;
  std::vector<Sent> Completed;
  std::atomic<uint64_t> Next{0};
  std::atomic<bool> Stop{false};
  double Steal0 = stealSeconds(DaemonCpus);
  double Start = now();
  auto Client = [&](unsigned Cl) {
    Conn C(connectUnix(D->Socket));
    std::string File =
        fs::absolute(D->Dir + "/req" + std::to_string(Cl) + ".so").string();
    while (!Stop.load()) {
      uint64_t I = Next.fetch_add(1);
      writeFile(File, patched(Base->ElfBytes, Sites, A.Seed, I));
      double T0 = now();
      Reply R = C.ok() ? checkRequest(C, std::to_string(I), File) : Reply{};
      std::lock_guard<std::mutex> G(Mu);
      bool Lost = R.Terminal.empty();
      Completed.push_back({I, Cl, T0, std::move(R)});
      if (Lost || (now() - Start >= A.Seconds && Completed.size() >= MinRequests))
        Stop = true;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl < Clients; ++Cl)
    Threads.emplace_back(Client, Cl);
  for (std::thread &T : Threads)
    T.join();
  double Secs = now() - Start;
  RR.WorkSteal = (stealSeconds(DaemonCpus) - Steal0) / DaemonCpus.size();

  // Daemon-side counters of the timed phase and its peak memory.
  std::map<std::string, double> C = storeCounters(*D);
  for (auto &[K, V] : C)
    V -= Store0[K];
  ProcUsage Use1 = usageOfPid(D->Pid);
  C["proc.user_s"] = Use1.UserS - Use0.UserS;
  C["proc.sys_s"] = Use1.SysS - Use0.SysS;
  C["proc.minflt"] = Use1.MinFlt - Use0.MinFlt;
  RR.WorkUser = C["proc.user_s"];
  RR.WorkSys = C["proc.sys_s"];
  RR.WorkMinflt = C["proc.minflt"];
  RR.E2E["peak_rss_mb"] = procStatusKB("VmHWM", D->Pid) / 1024.0;
  stopDaemon(*D);
  for (unsigned I = 0; I < SetupsAfter; ++I) {
    std::optional<Served> S = SetUp();
    if (!S) {
      ++RR.Failed;
      RR.Notes.push_back("a set-up after the timed phase failed");
      continue;
    }
    stopDaemon(S->D);
  }
  RR.E2E["setup_s"] = median(SetupSecs);

  // Verdicts: every function of every response is a unit; a refused or
  // failed request counts all its functions as misses and lies beyond any
  // latency limit.
  std::sort(Completed.begin(), Completed.end(),
            [](const Sent &X, const Sent &Y) { return X.Index < Y.Index; });
  std::set<uint64_t> Sample;
  for (uint64_t K = 0; Sample.size() < SampleSize; ++K)
    Sample.insert(splitmix(derive(0x5a, A.Seed) + K) % MinRequests);
  std::map<uint64_t, std::pair<unsigned, std::string>> SampleReports;
  size_t FnPerRequest = Base->Img.Functions.size();
  std::vector<double> Lat, AcceptMs, ResultMs;
  double Units = 0, Ok = 0, Insns = 0;
  Tracer T;
  T.On = A.Trace;
  for (Sent &X : Completed) {
    ++RR.Attempted;
    std::string Id = std::to_string(X.Index);
    bool Served = X.R.Terminal == "done" && !X.R.ResultLine.empty();
    std::string Report;
    ServedVerdicts V;
    if (Served)
      V = judgeServed(X.R.ResultLine, Sample.count(X.Index) ? &Report : nullptr);
    if (!Served || !V.Parsed) {
      ++RR.Failed;
      Units += static_cast<double>(FnPerRequest);
      Lat.push_back(INFINITY);
      C[X.R.Terminal == "rejected" ? "serve.rejected" : "serve.errors"] += 1;
      RR.Misses.push_back("request " + Id + ": " +
                          (X.R.Terminal.empty() ? "connection lost"
                           : Served             ? "unparseable result"
                                                : X.R.Terminal));
      continue;
    }
    if (!Report.empty())
      SampleReports[X.Index] = {X.Client, Report};
    Units += static_cast<double>(V.Functions);
    Ok += static_cast<double>(V.Ok);
    Insns += V.InsnsOk;
    RR.Misses.insert(RR.Misses.end(), V.Misses.begin(), V.Misses.end());
    Lat.push_back((X.R.DoneAt - X.At) * 1e3);
    AcceptMs.push_back((X.R.AcceptedAt - X.At) * 1e3);
    ResultMs.push_back((X.R.ResultAt - X.R.AcceptedAt) * 1e3);
    if (T.On) {
      int Root = static_cast<int>(T.Spans.size());
      T.Spans.push_back({"request", X.At, X.R.DoneAt, -1, Id});
      T.Spans.push_back({"serve.accept", X.At, X.R.AcceptedAt, Root, Id});
      T.Spans.push_back({"serve.result", X.R.AcceptedAt, X.R.ResultAt, Root, Id});
      T.Spans.push_back({"serve.done", X.R.ResultAt, X.R.DoneAt, Root, Id});
    }
  }
  // Over the timed phase less the time the hypervisor took a daemon CPU
  // away (the mean steal of the two).
  RR.E2E["insns_per_s"] = ratio(Insns, Secs - RR.WorkSteal);
  RR.E2E["ok_share"] = ratio(Ok, Units);
  RR.E2E["verdict_p50_ms"] = quantile(Lat, 0.50);
  RR.E2E["verdict_p95_ms"] = quantile(Lat, 0.95);
  // No witness search on this workload: no site is left unwitnessed.
  RR.E2E["witnessed_share"] = 1.0;
  size_t BeyondP95 = static_cast<size_t>(
      std::count_if(Lat.begin(), Lat.end(), [&](double X) {
        return X > RR.E2E["verdict_p95_ms"];
      }));
  RR.Notes.push_back(
      std::to_string(Completed.size()) + " requests on " +
      std::to_string(Clients) + " closed-loop connections in " +
      std::to_string(Secs) + " s, " + std::to_string(BeyondP95) +
      " beyond p95; " + std::to_string(Sites.size()) +
      " patchable mov r64, imm32 sites; no witness search; " +
      std::to_string(ratio(Insns, Secs)) + " insn/s before steal is taken out");

  // The serve contract: a served report is byte-identical to a cold run
  // of the same bytes.
  for (auto &[I, CR] : SampleReports) {
    std::vector<uint8_t> Bytes = patched(Base->ElfBytes, Sites, A.Seed, I);
    std::optional<elf::BinaryImage> Img =
        elf::readElf(Bytes, "req" + std::to_string(CR.first) + ".so");
    std::ostringstream Cold;
    if (Img) {
      Session S(*Img, servedOptions());
      S.check();
      S.writeReportJson(Cold);
    }
    bool Same = Cold.str() == CR.second;
    RR.Notes.push_back("request " + std::to_string(I) + " re-run cold: report " +
                       (Same ? "byte-identical" : "DIFFERS"));
    RR.Correct &= Same;
  }
  if (SampleReports.size() < SampleSize) {
    RR.Correct = false;
    RR.Notes.push_back("fewer sampled reports than requested");
  }

  C["serve.accept_ms"] = median(AcceptMs);
  C["serve.result_ms"] = median(ResultMs);
  RR.Layer["store.hit_ratio"] =
      ratio(C["store.hits"], C["store.hits"] + C["store.misses"]);
  // Daemon counters per request.
  for (const char *K : {"store.hits", "store.misses", "store.stored",
                        "store.validated", "store.validation_failures",
                        "proc.user_s", "proc.sys_s", "proc.minflt"})
    C[K] /= static_cast<double>(std::max<uint64_t>(RR.Attempted, 1));
  std::vector<std::vector<uint64_t>> Addrs;
  if (A.Trace) {
    std::map<std::string, double> RC;
    replay(Base->ElfBytes, Sites, A.Seed, StoreCopy, ReplayRequests, T, RC,
           Addrs);
    // In-process layers per replayed request.
    for (auto &[K, V] : RC)
      C[K] = V / ReplayRequests;
  }
  layerCounters(C, RR);
  for (const char *K : {"store.hits", "store.misses", "store.stored",
                        "store.validated", "store.validation_failures",
                        "store.lookup_s", "serve.rejected", "serve.errors",
                        "serve.accept_ms", "serve.result_ms"})
    RR.Layer[K] = C[K];
  RR.Layer["elf.parse_ms"] = 1e3 * ratio(C["elf_s"], C["inputs"]);
  if (A.Trace) {
    arenaProbe(Base->ElfBytes, static_cast<size_t>(C["hg.functions"]), A.Out,
               RR.Layer);
    std::vector<Unit> Inputs;
    for (unsigned I = 0; I < ReplayRequests; ++I) {
      Unit U;
      U.Bytes = patched(Base->ElfBytes, Sites, A.Seed, I);
      Inputs.push_back(std::move(U));
    }
    decodeProbe(Inputs, Addrs, RR.Layer);
  }
  RR.Spans = std::move(T.Spans);
  fs::remove_all(Work);
  return RR;
}

/// Metric names and units, in output order.
struct MetricDef {
  const char *Name, *Unit;
};
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"insns_per_s", "insn/s"},
    {"verdict_p50_ms", "ms"},  {"verdict_p95_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"ok_share", "ratio"},
    {"witnessed_share", "ratio"},
};
const MetricDef PerLayer[] = {
    {"elf.parse_ms", "ms"},
    {"x86.decode_ns_per_insn", "ns"},
    {"api.lift_s", "s"},
    {"hg.fn_clock_s", "s"},
    {"hg.unclocked_s", "s"},
    {"hg.functions", "count"},
    {"hg.vertices", "count"},
    {"hg.joins", "count"},
    {"hg.widenings", "count"},
    {"sem.steps", "count"},
    {"sem.forks", "count"},
    {"pred.leq_probes", "count"},
    {"pred.leq_memo_hit_ratio", "ratio"},
    {"expr.nodes", "count"},
    {"smt.solver_s", "s"},
    {"smt.queries", "count"},
    {"smt.z3_queries", "count"},
    {"smt.tier0_hits", "count"},
    {"smt.tier1_hits", "count"},
    {"smt.class_hits", "count"},
    {"smt.tier2_hits", "count"},
    {"smt.tier2_skipped", "count"},
    {"smt.fallthroughs", "count"},
    {"smt.relcache_hit_ratio", "ratio"},
    {"smt.arena_new_ms", "ms"},
    {"smt.arena_mb", "MB"},
    {"vsa.queries", "count"},
    {"vsa.resolved", "count"},
    {"vsa.restarts", "count"},
    {"export.check_s", "s"},
    {"export.theorems", "count"},
    {"export.theorems_per_s", "1/s"},
    {"witness.search_s", "s"},
    {"witness.sites", "count"},
    {"witness.confirmed", "count"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.stored", "count"},
    {"store.validated", "count"},
    {"store.validation_failures", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.lookup_s", "s"},
    {"serve.accept_ms", "ms"},
    {"serve.result_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"driver.report_ms", "ms"},
    {"driver.report_kb", "kB"},
    {"proc.sys_s", "s"},
    {"proc.minflt", "count"},
};

std::string num(double V) {
  if (!std::isfinite(V))
    V = 1e12; // a refused request: beyond any latency limit
  char B[64];
  std::snprintf(B, sizeof B, "%.17g", V);
  return B;
}

/// The run record: host, toolchain, solver, kernel, workload, and the
/// working process's CPU time and faults.
std::string runRecord(const Args &A, const RunResult &RR, unsigned Nproc) {
  utsname U{};
  uname(&U);
  std::string Cpu;
  {
    std::ifstream In("/proc/cpuinfo");
    for (std::string L; std::getline(In, L);)
      if (L.rfind("model name", 0) == 0) {
        Cpu = L.substr(L.find(':') + 2);
        break;
      }
  }
  std::string Z3 = "none";
#ifdef HGLIFT_WITH_Z3
  unsigned Ma, Mi, Bu, Re;
  Z3_get_version(&Ma, &Mi, &Bu, &Re);
  Z3 = std::to_string(Ma) + "." + std::to_string(Mi) + "." + std::to_string(Bu);
#endif
  std::ostringstream OS;
  OS << "{\"workload\": \"" << A.Workload << "\", \"population\": "
     << A.Population << ", \"seed\": " << A.Seed
     << ", \"seconds\": " << num(A.Seconds) << ", \"trace\": " << A.Trace
     << ", \"nproc\": " << Nproc << ", \"cpu\": \""
     << diag::jsonEscape(Cpu) << "\", \"kernel\": \""
     << diag::jsonEscape(std::string(U.sysname) + " " + U.release)
     << "\", \"compiler\": \"" << PERFBENCH_CXX_ID << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
     << diag::jsonEscape(PERFBENCH_CXX_FLAGS) << "\", \"z3\": \"" << Z3
     << "\", \"host_steal_s\": " << num(RR.StealS)
     << ", \"host_probe_ms\": " << num(RR.ProbeS * 1e3)
     << ", \"time_scale\": " << num(RR.TimeScale)
     << ", \"working_process\": {\"user_s\": " << num(RR.WorkUser)
     << ", \"sys_s\": " << num(RR.WorkSys) << ", \"minflt\": "
     << num(RR.WorkMinflt) << ", \"steal_s\": " << num(RR.WorkSteal)
     << "}, \"metrics\": {";
  bool First = true;
  for (auto &[K, V] : A.Trace ? RR.Layer : RR.E2E) {
    OS << (First ? "" : ", ") << "\"" << K << "\": " << num(V);
    First = false;
  }
  OS << "}}";
  return OS.str();
}

/// The per-layer self-time table of a traced run: for each root span kind
/// (a batch unit, a served request, a replayed request) every layer's
/// self time as a share of the roots' total, so the rows sum to the whole.
void printSelfTimes(const RunResult &RR) {
  std::map<std::string, std::vector<Span>> Trees;
  {
    std::vector<std::string> RootOf(RR.Spans.size());
    for (size_t I = 0; I < RR.Spans.size(); ++I) {
      const Span &S = RR.Spans[I];
      RootOf[I] = S.Parent < 0 ? S.Name : RootOf[S.Parent];
    }
    std::map<std::string, std::map<int, int>> Remap;
    for (size_t I = 0; I < RR.Spans.size(); ++I) {
      Span S = RR.Spans[I];
      std::vector<Span> &T = Trees[RootOf[I]];
      Remap[RootOf[I]][static_cast<int>(I)] = static_cast<int>(T.size());
      if (S.Parent >= 0)
        S.Parent = Remap[RootOf[I]][S.Parent];
      T.push_back(std::move(S));
    }
  }
  for (auto &[Root, Spans] : Trees) {
    std::map<std::string, LayerTime> LT = layerTimes(Spans);
    double Total = LT[Root].Total;
    std::vector<std::pair<std::string, LayerTime>> Rows(LT.begin(), LT.end());
    std::sort(Rows.begin(), Rows.end(), [](auto &X, auto &Y) {
      return X.second.Self > Y.second.Self;
    });
    std::printf("self time per layer, %zu '%s' spans, %.3f s in total:\n",
                LT[Root].Count, Root.c_str(), Total);
    std::printf("  %-16s %8s %10s %10s %7s\n", "layer", "spans", "total_s",
                "self_s", "self%");
    double Sum = 0;
    for (auto &[Name, L] : Rows) {
      std::printf("  %-16s %8zu %10.4f %10.4f %6.2f%%\n",
                  (Name == Root ? "(harness)" : Name.c_str()), L.Count, L.Total,
                  L.Self, 100.0 * ratio(L.Self, Total));
      Sum += L.Self;
    }
    std::printf("  %-16s %8s %10s %10.4f %6.2f%%\n", "sum", "", "", Sum,
                100.0 * ratio(Sum, Total));
  }
  // What the api.lift span holds, from the counters the lifter returns.
  auto Get = [&](const char *K) {
    auto It = RR.Layer.find(K);
    return It == RR.Layer.end() ? 0.0 : It->second;
  };
  std::printf("inside api.lift (per pass or request): smt.solver %.4f s, "
              "rest of hg.fn_clock %.4f s, hg.unclocked %.4f s\n",
              Get("smt.solver_s"), Get("hg.fn_clock_s") - Get("smt.solver_s"),
              Get("hg.unclocked_s"));
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 5 && std::string(argv[1]) == "--probe-arena")
    return arenaProbeMain(argv[2], std::strtoull(argv[4], nullptr, 10));
  Args A;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--population")
      A.Population = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--hglift")
      A.Hglift = V;
    else if (K == "--out")
      A.Out = V;
  }
  bool Serve = A.Workload == "serve_patch";
  // A daemon that goes away mid-request is a lost request, not a crash.
  signal(SIGPIPE, SIG_IGN);
  if (!Serve && A.Workload != "paper_audit" && A.Workload != "large_fn") {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  if (A.Out.empty() || (Serve && A.Hglift.empty())) {
    std::fprintf(stderr, "--out (and for serve_patch --hglift) required\n");
    return 2;
  }
  // Threads plus connections the workload starts: the daemon's two
  // workers and two client connections, or the batch lanes.
  const std::vector<int> AllCpus = allowedCpus();
  unsigned Need = Serve ? 4 : A.Workload == "large_fn" ? 2 : 1;
  if (Need > AllCpus.size()) {
    std::fprintf(stderr,
                 "%s needs %u CPUs (threads plus connections), %zu available\n",
                 A.Workload.c_str(), Need, AllCpus.size());
    return 2;
  }
  // The working processes get the last CPUs, one per batch lane or the
  // daemon's two; the harness, its clients and the host probe the rest.
  size_t Work = A.Workload == "paper_audit" ? 1 : 2;
  A.WorkCpus.assign(AllCpus.end() - Work, AllCpus.end());
  A.HarnessCpus.assign(AllCpus.begin(), AllCpus.end() - Work);
  if (A.HarnessCpus.empty())
    A.HarnessCpus = AllCpus;
  pinTo(A.HarnessCpus);
  std::string Runs = A.Out + "/runs";
  fs::create_directories(Runs);
  std::string Stem = Runs + "/" + A.Workload + "-pop" +
                     std::to_string(A.Population) + "-seed" +
                     std::to_string(A.Seed);

  RunResult RR;
  double Steal0 = stealSeconds(AllCpus);
  try {
    HostProbe Probe;
    RR = Serve ? runServe(A) : runBatch(A);
    RR.ProbeS = Probe.stop();
    RR.StealS = stealSeconds(AllCpus) - Steal0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "%s: %s\n", A.Workload.c_str(), E.what());
    return 1;
  }
  if (RR.ProbeS > 0)
    RR.TimeScale = ProbeRef / RR.ProbeS;
  for (const char *K : {"setup_s", "verdict_p50_ms", "verdict_p95_ms"})
    RR.E2E[K] *= RR.TimeScale;
  RR.E2E["insns_per_s"] /= RR.TimeScale;

  std::printf("run: %s\n", runRecord(A, RR, AllCpus.size()).c_str());
  for (const std::string &N : RR.Notes)
    std::printf("note: %s\n", N.c_str());
  // Units that missed their known answer stay in the draw; identical
  // misses (one population repeated, or one base function per request)
  // are listed once with their count.
  std::map<std::string, unsigned> Missed;
  for (const std::string &M : RR.Misses)
    ++Missed[M];
  for (auto &[M, N] : Missed)
    std::printf("missed known answer (x%u): %s\n", N, M.c_str());
  for (const std::string &W : RR.Wrong)
    std::printf("WRONG (accepted an unliftable unit): %s\n", W.c_str());

  if (!A.Trace) {
    std::ofstream E2E(Stem + "-untraced.txt", std::ios::trunc);
    for (auto &[K, V] : RR.E2E)
      E2E << K << " " << num(V) << "\n";
  } else {
    printSelfTimes(RR);
    std::ifstream E2E(Stem + "-untraced.txt");
    std::map<std::string, double> Untraced;
    std::string K;
    double V;
    while (E2E >> K >> V)
      Untraced[K] = V;
    if (Untraced.count("insns_per_s"))
      std::printf("tracing overhead: %+.2f%% (insns_per_s %.1f traced vs %.1f "
                  "untraced; verdict_p50_ms %.2f vs %.2f); probes excluded\n",
                  100.0 * (ratio(Untraced["insns_per_s"], RR.E2E["insns_per_s"]) - 1),
                  RR.E2E["insns_per_s"], Untraced["insns_per_s"],
                  RR.E2E["verdict_p50_ms"], Untraced["verdict_p50_ms"]);
    else
      std::printf("tracing overhead: no untraced run of %s at seed %llu "
                  "recorded in %s yet\n",
                  A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
                  Runs.c_str());
    std::ofstream SF(Stem + "-spans.jsonl", std::ios::trunc);
    for (const Span &S : RR.Spans)
      SF << "{\"name\": \"" << S.Name << "\", \"start\": " << num(S.Start)
         << ", \"end\": " << num(S.End) << ", \"parent\": " << S.Parent
         << ", \"unit\": \"" << S.Unit << "\"}\n";
  }
  {
    std::ofstream RF(Stem + "-trace" + std::to_string(A.Trace) + ".json",
                     std::ios::trunc);
    RF << runRecord(A, RR, AllCpus.size()) << "\n";
  }

  std::string Out = "{\"correct\": " + std::string(RR.Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(RR.Attempted) +
                    ", \"failed\": " + std::to_string(RR.Failed) +
                    ", \"metrics\": {";
  bool First = true;
  const MetricDef *Begin = A.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricDef *End = A.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  const std::map<std::string, double> &Vals = A.Trace ? RR.Layer : RR.E2E;
  for (const MetricDef *M = Begin; M != End; ++M) {
    auto It = Vals.find(M->Name);
    Out += std::string(First ? "" : ", ") + "\"" + M->Name +
           "\": {\"value\": " + num(It == Vals.end() ? 0.0 : It->second) +
           ", \"unit\": \"" + M->Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
