//===- bench_serve.cpp - hglift serve daemon gates -----------------------===//
//
// Measures what the serve daemon is for — not lifting faster, but not
// paying twice — against the real shipped binary over its Unix socket:
//
//   * warm-identity gate (always on): for every corpus binary, the warm
//     (store-hit) response's report payload is byte-identical to the cold
//     response's — serving from the warm store must be invisible in the
//     bytes, exactly like the CLI's warm-vs-cold --cache-dir contract;
//   * dedup gate (always on): a second client submitting the same corpus
//     is served from the store (hit ratio > 0) and writes nothing new —
//     two clients submitting identical instruction bytes pay for one lift;
//   * warm-latency gate (full mode only): the warm pass is >= 1.2x faster
//     than the cold pass end-to-end;
//   * saturation phase (full mode, >= 4 hardware threads — auto-skipped
//     with the reason recorded, matching BENCH_shard.json convention):
//     more concurrent clients than workers; reports p50/p99 request
//     latency and gates on zero protocol errors under overload.
//
// Results go to BENCH_serve.json (--out PATH to override). --smoke runs a
// tiny corpus and only the identity/dedup gates; that mode is wired into
// ctest tier 1, the full run into tier 2. Corpus files, the store and the
// socket live in a fresh mkdtemp directory under $TMPDIR, removed on exit.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "diag/Json.h"
#include "serve/Serve.h"
#include "shard/LineProto.h"

#include "WorkDir.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace hglift;

namespace {

std::string jsonNum(double D) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", D);
  return Buf;
}

// --- corpus ---------------------------------------------------------------

struct CorpusItem {
  std::string Name;
  corpus::BuiltBinary BB;
};

std::vector<CorpusItem> buildCorpus(bool Smoke) {
  std::vector<CorpusItem> Items;
  auto Add = [&](const char *Name, std::optional<corpus::BuiltBinary> BB) {
    if (BB)
      Items.push_back({Name, std::move(*BB)});
    else
      std::fprintf(stderr, "warning: corpus item %s failed to build\n", Name);
  };
  Add("straightline", corpus::straightlineBinary());
  Add("branch_loop", corpus::branchLoopBinary());
  if (Smoke)
    return Items;
  Add("call_chain", corpus::callChainBinary());
  Add("jump_table", corpus::jumpTableBinary());
  Add("callback", corpus::callbackBinary());
  Add("recursion", corpus::recursionBinary());
  Add("stack_probe", corpus::stackProbeBinary());
  return Items;
}

std::vector<std::string> corpusToDisk(const std::vector<CorpusItem> &Corpus,
                                      const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  std::vector<std::string> Paths;
  for (const CorpusItem &It : Corpus) {
    std::string P = Dir + "/" + It.Name + ".elf";
    std::ofstream Out(P, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(It.BB.ElfBytes.data()),
              static_cast<std::streamsize>(It.BB.ElfBytes.size()));
    Paths.push_back(P);
  }
  return Paths;
}

// --- daemon + client plumbing ---------------------------------------------

int connectSock(const std::string &Path) {
  sockaddr_un SU{};
  SU.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SU.sun_path))
    return -1;
  std::memcpy(SU.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&SU), sizeof(SU)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

struct Daemon {
  pid_t Pid = -1;
  std::string Sock;
  bool Ready = false;

  Daemon(const std::string &Sock, const std::vector<std::string> &Extra)
      : Sock(Sock) {
    ::unlink(Sock.c_str());
    std::vector<std::string> Args = {HGLIFT_BIN, "serve", "--socket", Sock};
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = fork();
    if (Pid == 0) {
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      FILE *Null = freopen("/dev/null", "w", stdout);
      (void)Null;
      execv(HGLIFT_BIN, Argv.data());
      _exit(127);
    }
    for (int I = 0; Pid > 0 && I < 400; ++I) {
      int Fd = connectSock(Sock);
      if (Fd >= 0) {
        ::close(Fd);
        Ready = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      int St;
      waitpid(Pid, &St, 0);
    }
    ::unlink(Sock.c_str());
  }
};

struct RequestResult {
  bool Ok = false; ///< got a result and a clean done (no protocol error)
  int Exit = -1;   ///< the result's exit field (may legitimately be 1 for
                   ///< corpus binaries with annotated/unproven outcomes)
  double Ms = 0;
  std::string Report;
};

/// Submit one check request over Fd and drain it through its terminal
/// event, timing send-to-done.
RequestResult submitCheck(int Fd, std::string &Buf, const std::string &Id,
                          const std::string &File) {
  RequestResult R;
  std::string Req = "{\"op\":\"check\",\"id\":\"" + Id + "\",\"file\":\"" +
                    File + "\"}\n";
  bool GotResult = false;
  auto T0 = std::chrono::steady_clock::now();
  if (!shard::writeAll(Fd, Req))
    return R;
  for (;;) {
    std::optional<std::string> L = shard::readLineBlocking(Fd, Buf);
    if (!L)
      return R;
    std::optional<diag::JValue> V = diag::parseJson(*L);
    if (!V || !V->isObj())
      return R;
    std::string Ev = V->str("event");
    if (Ev == "result") {
      R.Report = V->str("report");
      R.Exit = static_cast<int>(V->num("exit", -1));
      GotResult = true;
    } else if (Ev == "done") {
      R.Ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
      R.Ok = GotResult;
      return R;
    } else if (Ev == "error" || Ev == "rejected") {
      return R;
    }
  }
}

/// Fetch the daemon's store counters through a metrics request.
bool fetchCache(const std::string &Sock, uint64_t &Hits, uint64_t &Misses,
                uint64_t &Stored) {
  int Fd = connectSock(Sock);
  if (Fd < 0)
    return false;
  std::string Buf;
  bool Ok = false;
  if (shard::writeAll(Fd, "{\"op\":\"metrics\",\"id\":\"m\"}\n")) {
    std::optional<std::string> L = shard::readLineBlocking(Fd, Buf);
    if (L) {
      std::optional<diag::JValue> V = diag::parseJson(*L);
      if (V && V->isObj()) {
        if (const diag::JValue *Cache = V->get("cache")) {
          Hits = static_cast<uint64_t>(Cache->num("hits", 0));
          Misses = static_cast<uint64_t>(Cache->num("misses", 0));
          Stored = static_cast<uint64_t>(Cache->num("stored", 0));
          Ok = true;
        }
      }
    }
  }
  ::close(Fd);
  return Ok;
}

double pct(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * double(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_serve.json";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--smoke")
      Smoke = true;
    else if (A == "--out" && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: bench_serve [--smoke] [--out F]\n");
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<CorpusItem> Corpus = buildCorpus(Smoke);
  bench::WorkDir Work("hglift_bench_serve");
  if (Work.Path.empty()) {
    std::fprintf(stderr, "cannot create a work directory\n");
    return 3;
  }
  const std::string &WorkRoot = Work.Path;
  std::vector<std::string> Paths = corpusToDisk(Corpus, WorkRoot + "/elfs");
  std::printf("serve bench: %zu corpus binaries%s\n\n", Paths.size(),
              Smoke ? " (smoke)" : "");

  // Phase 1+2: for every binary, client A submits first (cold), then
  // client B submits the identical bytes (warm) — the ISSUE's dedup
  // contract, measured per binary. Interleaving DIFFERENT binaries would
  // instead exercise the store's entry-address ref thrash (two corpus
  // binaries share a TextBase), which is a store property, not a serve
  // one. Memo off so warmth is the artifact store (the soundness-carrying
  // path), not the whole-file memo.
  std::string Sock = WorkRoot + "/bench.sock";
  Daemon D(Sock, {"--threads", "1", "--cache-dir", WorkRoot + "/cache",
                  "--memo-max", "0"});
  if (!D.Ready) {
    std::fprintf(stderr, "daemon never came up on %s\n", Sock.c_str());
    return 3;
  }

  bool AllOk = true, WarmIdentical = true, DedupHit = true,
       DedupNoNewWrites = true;
  double ColdMs = 0, WarmMs = 0;
  uint64_t WarmHitTotal = 0, WarmLookupTotal = 0;
  int ClientA = connectSock(Sock), ClientB = connectSock(Sock);
  std::string BufA, BufB;
  for (size_t I = 0; I < Paths.size(); ++I) {
    RequestResult Cold =
        submitCheck(ClientA, BufA, "cold" + std::to_string(I), Paths[I]);
    AllOk = AllOk && Cold.Ok;
    ColdMs += Cold.Ms;
    uint64_t H0 = 0, M0 = 0, S0 = 0, H1 = 0, M1 = 0, S1 = 0;
    fetchCache(Sock, H0, M0, S0);
    RequestResult Warm =
        submitCheck(ClientB, BufB, "warm" + std::to_string(I), Paths[I]);
    AllOk = AllOk && Warm.Ok;
    WarmMs += Warm.Ms;
    WarmIdentical = WarmIdentical && Warm.Report == Cold.Report &&
                    Warm.Exit == Cold.Exit;
    fetchCache(Sock, H1, M1, S1);
    DedupHit = DedupHit && H1 > H0;
    DedupNoNewWrites = DedupNoNewWrites && S1 == S0;
    WarmHitTotal += H1 - H0;
    WarmLookupTotal += (H1 - H0) + (M1 - M0);
  }
  ::close(ClientA);
  ::close(ClientB);

  double DedupRatio =
      WarmLookupTotal > 0 ? double(WarmHitTotal) / double(WarmLookupTotal)
                          : 0;
  double WarmSpeedup = WarmMs > 0 ? ColdMs / WarmMs : 0;
  std::printf("cold %7.1fms  warm %7.1fms  (%.2fx)  reports %s\n",
              ColdMs, WarmMs, WarmSpeedup,
              WarmIdentical ? "identical" : "DIFFER");
  std::printf("dedup: second client hit %llu/%llu lookups, %s new store "
              "writes\n\n",
              (unsigned long long)WarmHitTotal,
              (unsigned long long)WarmLookupTotal,
              DedupNoNewWrites ? "no" : "UNEXPECTED");

  // Wall-clock gates are meaningless without real parallelism (and quiet
  // cores) underneath, so every timing gate auto-skips below 4 hardware
  // threads and in smoke mode, recording the reason.
  unsigned HwThreads = std::thread::hardware_concurrency();
  bool TimingSkipped = Smoke || HwThreads < 4;
  std::string TimingSkipReason = !TimingSkipped ? ""
                                 : Smoke        ? "smoke mode"
                                          : "fewer than 4 hardware threads";

  // Phase 3: saturation — more clients than workers.
  bool SatSkipped = TimingSkipped;
  const std::string &SatSkipReason = TimingSkipReason;
  double SatP50 = 0, SatP99 = 0;
  uint64_t SatRequests = 0, SatErrors = 0;
  bool SatPass = true;
  if (!SatSkipped) {
    const unsigned Clients = 8;
    std::atomic<uint64_t> Errors{0};
    std::mutex LatMu;
    std::vector<double> Lat;
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Clients; ++T)
      Threads.emplace_back([&, T] {
        int Fd = connectSock(Sock);
        if (Fd < 0) {
          ++Errors;
          return;
        }
        std::string Buf;
        for (unsigned I = 0; I < 4; ++I) {
          RequestResult R = submitCheck(
              Fd, Buf, std::to_string(T) + "-" + std::to_string(I),
              Paths[(T + I) % Paths.size()]);
          if (!R.Ok)
            ++Errors;
          std::lock_guard<std::mutex> G(LatMu);
          Lat.push_back(R.Ms);
        }
        ::close(Fd);
      });
    for (std::thread &T : Threads)
      T.join();
    SatRequests = Lat.size();
    SatErrors = Errors.load();
    SatP50 = pct(Lat, 0.50);
    SatP99 = pct(Lat, 0.99);
    SatPass = SatErrors == 0;
    std::printf("saturation: %llu requests over %u clients, p50 %.1fms "
                "p99 %.1fms, %llu errors\n\n",
                (unsigned long long)SatRequests, Clients, SatP50, SatP99,
                (unsigned long long)SatErrors);
  } else {
    std::printf("saturation: skipped (%s)\n\n", SatSkipReason.c_str());
  }

  // Gates. The warm-latency ratio is a timing gate; it is deliberately
  // modest (1.2x) because a store hit still pays the Step-2 re-proof —
  // validate-don't-trust means warmth only ever removes Step-1.
  bool GateOk = AllOk;
  bool GateIdentity = WarmIdentical;
  bool GateDedup = DedupHit && DedupNoNewWrites;
  bool GateWarm = TimingSkipped || WarmSpeedup >= 1.2;
  bool Pass = GateOk && GateIdentity && GateDedup && GateWarm && SatPass;

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 3;
  }
  Out << "{\n"
      << "  \"bench\": \"serve\",\n"
      << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
      << "  \"corpus_binaries\": " << Paths.size() << ",\n"
      << "  \"warm_cold\": {\n"
      << "    \"cold_wall_ms\": " << jsonNum(ColdMs) << ",\n"
      << "    \"warm_wall_ms\": " << jsonNum(WarmMs) << ",\n"
      << "    \"warm_speedup\": " << jsonNum(WarmSpeedup) << ",\n"
      << "    \"timing_gate_skipped\": "
      << (TimingSkipped ? "true" : "false") << ",\n"
      << "    \"skip_reason\": \"" << TimingSkipReason << "\",\n"
      << "    \"reports_identical\": " << (WarmIdentical ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"dedup\": {\n"
      << "    \"warm_hits\": " << WarmHitTotal << ",\n"
      << "    \"warm_lookups\": " << WarmLookupTotal << ",\n"
      << "    \"no_new_writes\": " << (DedupNoNewWrites ? "true" : "false")
      << ",\n"
      << "    \"warm_hit_ratio\": " << jsonNum(DedupRatio) << "\n"
      << "  },\n"
      << "  \"saturation\": {\n"
      << "    \"hardware_threads\": " << HwThreads << ",\n"
      << "    \"skipped\": " << (SatSkipped ? "true" : "false") << ",\n"
      << "    \"skip_reason\": \"" << SatSkipReason << "\",\n"
      << "    \"requests\": " << SatRequests << ",\n"
      << "    \"protocol_errors\": " << SatErrors << ",\n"
      << "    \"p50_ms\": " << jsonNum(SatP50) << ",\n"
      << "    \"p99_ms\": " << jsonNum(SatP99) << "\n"
      << "  },\n"
      << "  \"gates\": {\n"
      << "    \"all_requests_completed\": " << (GateOk ? "true" : "false")
      << ",\n"
      << "    \"warm_report_identity\": "
      << (GateIdentity ? "true" : "false") << ",\n"
      << "    \"cross_client_dedup\": " << (GateDedup ? "true" : "false")
      << ",\n"
      << "    \"warm_speedup_1_2x\": "
      << (TimingSkipped ? "\"skipped\"" : (GateWarm ? "true" : "false"))
      << ",\n"
      << "    \"saturation_zero_errors\": "
      << (SatSkipped ? "\"skipped\"" : (SatPass ? "true" : "false")) << "\n"
      << "  },\n"
      << "  \"pass\": " << (Pass ? "true" : "false") << "\n"
      << "}\n";
  std::printf("%s -> %s\n", Pass ? "PASS" : "FAIL", OutPath.c_str());
  return Pass ? 0 : 1;
}
