//===- Serve.cpp - The hglift serve daemon and client --------------------===//
//
// Thread shape: the main thread owns the accept loop (poll over the
// listeners and a self-pipe the signal handlers and `shutdown` requests
// write to). Each accepted connection gets a reader thread that parses
// request lines, answers metrics/shutdown inline, and pushes heavy ops
// (lift/check/explain) through admission control into one bounded queue. A
// fixed pool of worker threads drains the queue; worker I owns warm store
// instance I for its whole life, which is what makes cross-request reuse
// safe (store sharing is sequential per instance, see api/Hglift.h).
//
// Event ordering per request: `accepted` is written while the queue lock
// is held, so a worker cannot pop the job — let alone write its `result` —
// before admission is on the wire. Terminal events are `done`, `rejected`,
// and `error`; exactly one ends every request.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "diag/Json.h"
#include "driver/ExitCode.h"
#include "driver/Report.h"
#include "elf/ElfReader.h"
#include "shard/LineProto.h"
#include "witness/Witness.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace hglift::serve {

using driver::ExitCode;
using driver::toExit;

namespace {

// ---------------------------------------------------------------- helpers

uint64_t fnv64(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::optional<std::vector<uint8_t>> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof())
    return std::nullopt;
  return Bytes;
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// Fixed-precision rate so identical counters always render identical
/// bytes (the metrics determinism contract, docs/SERVE.md).
std::string fmtRate(uint64_t Num, uint64_t Den) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.4f", Den ? double(Num) / double(Den) : 0.0);
  return Buf;
}

std::string fmtMs(double Ms) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.3f", Ms);
  return Buf;
}

// ---------------------------------------------------------- wire building

/// Common prefix of every response line: schema version first, then the
/// event, then the echoed request id.
std::string lineHead(const char *Event, const std::string &Id) {
  std::string S = "{\"serve_schema_version\":";
  S += std::to_string(ServeSchemaVersion);
  S += ",\"event\":\"";
  S += Event;
  S += "\",\"id\":\"";
  S += diag::jsonEscape(Id);
  S += "\"";
  return S;
}

std::string doneLine(const std::string &Id) {
  return lineHead("done", Id) + "}\n";
}

std::string errorLine(const std::string &Id, int Exit,
                      const std::string &Reason) {
  return lineHead("error", Id) + ",\"exit\":" + std::to_string(Exit) +
         ",\"reason\":\"" + diag::jsonEscape(Reason) + "\"}\n";
}

std::string rejectLine(const std::string &Id, const char *Reason,
                       unsigned RetryAfterMs) {
  return lineHead("rejected", Id) + ",\"reason\":\"" + Reason +
         "\",\"retry_after_ms\":" + std::to_string(RetryAfterMs) + "}\n";
}

std::string acceptLine(const std::string &Id, size_t QueueDepth) {
  return lineHead("accepted", Id) +
         ",\"queue_depth\":" + std::to_string(QueueDepth) + "}\n";
}

// ------------------------------------------------------------ server state

/// One client connection. The write mutex serializes response lines from
/// the reader thread (admission events, metrics) and workers (results):
/// lines interleave, bytes within a line never do.
struct Conn {
  int Fd;
  std::mutex WMu;
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  /// Best-effort: a false return means the client is gone, which cancels
  /// nothing — the work was already paid for and feeds the warm caches.
  bool writeLine(const std::string &L) {
    std::lock_guard<std::mutex> G(WMu);
    return shard::writeAll(Fd, L);
  }
};

/// One admitted request, parsed off the wire.
struct Request {
  std::string Id;
  std::string Op; // lift | check | explain
  std::string File;
  std::string ReportText; // explain: inline report document
  Options Opt; // lift/check: the daemon's Base under the request's fields
  driver::ExplainOptions Filter; // explain: `function` and `addr`
};

struct Job {
  std::shared_ptr<Conn> C;
  Request R;
};

struct MemoEntry {
  std::string Key;
  std::string Payload; // result-line suffix after the id field
};

struct Server {
  const ServeOptions &Opt;
  explicit Server(const ServeOptions &O) : Opt(O) {}

  // Admission control + lifecycle, all under QMu.
  std::mutex QMu;
  std::condition_variable QCv;     // wakes workers
  std::condition_variable DrainCv; // wakes the drain waiter
  std::deque<Job> Queue;
  unsigned InFlight = 0;
  bool Draining = false; // reject new work, finish queued work
  bool Stopping = false; // workers exit when the queue is empty
  uint64_t Total = 0, Accepted = 0, Rejected = 0, MemoHits = 0;

  // Whole-file response memo, front = most recently used.
  std::mutex MemoMu;
  std::list<MemoEntry> Memo;

  // Completed lift/check wall times (ms), for the metrics percentiles.
  std::mutex LatMu;
  std::vector<double> LiftMs;

  // The warm store every worker shares (null without --cache-dir),
  // opened before the pool starts.
  std::unique_ptr<store::CacheStore> Store;

  // Live connections (to shutdown() at drain) and their reader threads.
  std::mutex ConnMu;
  std::vector<std::weak_ptr<Conn>> Conns;
  std::vector<std::thread> ConnThreads;

  int WakeR = -1, WakeW = -1; // self-pipe: signals + `shutdown` requests
};

/// Written by signal handlers; async-signal-safe (one write syscall).
int GWakeW = -1;

void onSignal(int) {
  char B = 1;
  if (GWakeW >= 0)
    (void)!::write(GWakeW, &B, 1);
}

void requestDrain(Server &S) {
  {
    std::lock_guard<std::mutex> G(S.QMu);
    if (S.Draining)
      return;
    S.Draining = true;
  }
  char B = 1;
  (void)!::write(S.WakeW, &B, 1);
}

// ----------------------------------------------------------------- metrics

std::string metricsLine(Server &S, const std::string &Id) {
  size_t QueueDepth, MemoEntries;
  unsigned InFlight;
  uint64_t Total, Accepted, Rejected, MemoHits;
  {
    std::lock_guard<std::mutex> G(S.QMu);
    QueueDepth = S.Queue.size();
    InFlight = S.InFlight;
    Total = S.Total;
    Accepted = S.Accepted;
    Rejected = S.Rejected;
    MemoHits = S.MemoHits;
  }
  {
    std::lock_guard<std::mutex> G(S.MemoMu);
    MemoEntries = S.Memo.size();
  }
  store::CacheStats CS = S.Store ? S.Store->stats() : store::CacheStats();
  std::vector<double> Lat;
  {
    std::lock_guard<std::mutex> G(S.LatMu);
    Lat = S.LiftMs;
  }
  std::sort(Lat.begin(), Lat.end());
  auto Pct = [&Lat](double P) {
    if (Lat.empty())
      return 0.0;
    size_t I = static_cast<size_t>(P * double(Lat.size() - 1) + 0.5);
    return Lat[std::min(I, Lat.size() - 1)];
  };

  // Every field before "wall" is a deterministic function of the request
  // history; wall-clock quantities are isolated in the trailing "wall"
  // object so consumers can strip one suffix to compare bytes.
  std::string L = lineHead("metrics", Id);
  L += ",\"queue_depth\":" + std::to_string(QueueDepth);
  L += ",\"in_flight\":" + std::to_string(InFlight);
  L += ",\"requests_total\":" + std::to_string(Total);
  L += ",\"accepted\":" + std::to_string(Accepted);
  L += ",\"rejected\":" + std::to_string(Rejected);
  L += ",\"memo_hits\":" + std::to_string(MemoHits);
  L += ",\"memo_entries\":" + std::to_string(MemoEntries);
  L += ",\"lift_samples\":" + std::to_string(Lat.size());
  L += ",\"cache\":{\"hits\":" + std::to_string(CS.Hits);
  L += ",\"misses\":" + std::to_string(CS.Misses);
  L += ",\"stored\":" + std::to_string(CS.Stored);
  L += ",\"validated\":" + std::to_string(CS.Validated);
  L += ",\"validation_failures\":" + std::to_string(CS.ValidationFailures);
  L += ",\"evictions\":" + std::to_string(CS.Evictions);
  L += ",\"hit_rate\":\"" + fmtRate(CS.Hits, CS.Hits + CS.Misses) + "\"}";
  L += ",\"wall\":{\"lift_p50_ms\":" + fmtMs(Pct(0.50));
  L += ",\"lift_p99_ms\":" + fmtMs(Pct(0.99)) + "}}\n";
  return L;
}

// ------------------------------------------------------------- processing

void processJob(Server &S, Job &J) {
  const Request &R = J.R;

  if (R.Op == "explain") {
    std::ostringstream Out, Err;
    int Exit = driver::runExplainText(R.ReportText, R.Filter, Out, Err,
                                      "request `" + R.Id + "`");
    if (Exit != 0) {
      std::string E = Err.str();
      while (!E.empty() && E.back() == '\n')
        E.pop_back();
      J.C->writeLine(errorLine(R.Id, Exit, E));
      return;
    }
    J.C->writeLine(lineHead("result", R.Id) + ",\"op\":\"explain\"" +
                   ",\"exit\":0,\"text\":\"" + diag::jsonEscape(Out.str()) +
                   "\"}\n");
    J.C->writeLine(doneLine(R.Id));
    return;
  }

  // lift / check. The server reads the file; paths are resolved in the
  // daemon's filesystem view (clients on the same host, see docs/SERVE.md).
  std::optional<std::vector<uint8_t>> Bytes = readFileBytes(R.File);
  if (!Bytes) {
    J.C->writeLine(
        errorLine(R.Id, toExit(ExitCode::Io), "cannot read " + R.File));
    return;
  }

  // Whole-file dedup: keyed by content digest plus everything that can
  // change the payload. A hit replays the memoized result under this
  // request's id — no ELF parse, no store lookup, no lift.
  std::string Key;
  {
    std::ostringstream K;
    K << std::hex << fnv64(*Bytes) << '|' << R.Op << '|' << R.Opt.Library
      << '|' << R.Opt.Lift.MaxSeconds << '|' << R.Opt.Lift.MaxVertices;
    Key = K.str();
  }
  if (S.Opt.MemoMax > 0) {
    std::lock_guard<std::mutex> G(S.MemoMu);
    for (std::list<MemoEntry>::iterator It = S.Memo.begin();
         It != S.Memo.end(); ++It)
      if (It->Key == Key) {
        S.Memo.splice(S.Memo.begin(), S.Memo, It);
        {
          std::lock_guard<std::mutex> Q(S.QMu);
          ++S.MemoHits;
        }
        J.C->writeLine(lineHead("result", R.Id) + It->Payload);
        J.C->writeLine(doneLine(R.Id));
        return;
      }
  }

  std::optional<elf::BinaryImage> Img = elf::readElf(*Bytes, baseName(R.File));
  if (!Img) {
    J.C->writeLine(errorLine(R.Id, toExit(ExitCode::Fail),
                             "cannot parse ELF file " + R.File));
    return;
  }

  Options SO = R.Opt;
  SO.Cache.Shared = S.Store.get();

  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  Session Sess(*Img, SO);
  // Same exit-code table as the CLI (driver/ExitCode.h).
  int Exit = toExit(Sess.verdict(R.Op == "check"));
  // Same witness search a CLI `check --witness-dir` run performs, so the
  // report payload below stays byte-identical to the CLI's report file.
  const diag::WitnessSummary *Wit = nullptr;
  if (R.Op == "check" && !SO.Witness.Dir.empty())
    Wit = &witness::attachWitnesses(Sess, &*Bytes);
  std::ostringstream Rep;
  Sess.writeReportJson(Rep);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  {
    std::lock_guard<std::mutex> G(S.LatMu);
    S.LiftMs.push_back(Ms);
  }

  std::string Payload = ",\"op\":\"" + R.Op + "\"";
  Payload += ",\"exit\":" + std::to_string(Exit);
  Payload += ",\"outcome\":\"";
  Payload += hg::liftOutcomeName(Sess.lift().Outcome);
  Payload += "\"";
  if (Wit) {
    Payload += ",\"witnesses_confirmed\":" + std::to_string(Wit->Confirmed);
    Payload +=
        ",\"witnesses_unconfirmed\":" + std::to_string(Wit->Unconfirmed);
  }
  Payload += ",\"report\":\"" + diag::jsonEscape(Rep.str()) + "\"}\n";

  if (S.Opt.MemoMax > 0) {
    std::lock_guard<std::mutex> G(S.MemoMu);
    S.Memo.push_front(MemoEntry{Key, Payload});
    while (S.Memo.size() > S.Opt.MemoMax)
      S.Memo.pop_back();
  }
  J.C->writeLine(lineHead("result", R.Id) + Payload);
  J.C->writeLine(doneLine(R.Id));
}

void workerLoop(Server &S) {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> L(S.QMu);
      S.QCv.wait(L, [&S] { return S.Stopping || !S.Queue.empty(); });
      if (S.Queue.empty())
        return; // Stopping, and drain already emptied the queue
      J = std::move(S.Queue.front());
      S.Queue.pop_front();
      ++S.InFlight;
    }
    // Test hook: hold the slot so admission-control tests can fill the
    // queue deterministically (the job is in_flight while it sleeps).
    if (const char *E = std::getenv("HGLIFT_SERVE_TEST_SLEEP_MS"))
      std::this_thread::sleep_for(std::chrono::milliseconds(std::atoi(E)));
    processJob(S, J);
    {
      std::lock_guard<std::mutex> L(S.QMu);
      --S.InFlight;
    }
    S.DrainCv.notify_all();
  }
}

// ----------------------------------------------------------- reader thread

void connLoop(Server &S, std::shared_ptr<Conn> C) {
  std::string Buf;
  for (;;) {
    std::optional<std::string> Line = shard::readLineBlocking(C->Fd, Buf);
    if (!Line)
      return; // client hung up, or the drain shut the socket down
    if (Line->find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::optional<diag::JValue> D = diag::parseJson(*Line);
    if (!D || !D->isObj()) {
      C->writeLine(errorLine(D && D->isObj() ? D->str("id") : "",
                             toExit(ExitCode::Usage),
                             "malformed request: not a JSON object"));
      continue;
    }
    Request R;
    R.Id = D->str("id");
    R.Op = D->str("op");
    R.File = D->str("file");
    R.ReportText = D->str("report");
    R.Opt = S.Opt.Base;
    R.Opt.Lift.Threads = 1; // the pool, not the Session, is the parallelism
    if (const diag::JValue *B = D->get("library"))
      R.Opt.Library = B->K == diag::JValue::Kind::Bool && B->B;
    // Request budgets may lower the daemon's caps, never raise them. A wall
    // cap of 0 means no limit, so there the request's own budget applies.
    double Sec = D->num("max_seconds", 0), Insns = D->num("max_insns", 0);
    double &MaxSec = R.Opt.Lift.MaxSeconds;
    if (Sec > 0 && (MaxSec == 0 || Sec < MaxSec))
      MaxSec = Sec;
    if (Insns > 0 && Insns < double(R.Opt.Lift.MaxVertices))
      R.Opt.Lift.MaxVertices = static_cast<size_t>(Insns);
    R.Filter.FunctionFilter = D->str("function");
    R.Filter.AddrFilter = D->str("addr");

    // Control ops are answered inline by this thread — metrics must work
    // even when every worker slot and queue slot is occupied.
    if (R.Op == "metrics") {
      C->writeLine(metricsLine(S, R.Id));
      continue;
    }
    if (R.Op == "shutdown") {
      C->writeLine(doneLine(R.Id));
      requestDrain(S);
      continue;
    }
    if (std::find(std::begin(RequestOps), std::end(RequestOps), R.Op) ==
        std::end(RequestOps)) {
      C->writeLine(errorLine(R.Id, toExit(ExitCode::Usage),
                             "unknown op `" + R.Op + "`"));
      continue;
    }
    if (R.Op == "explain" ? R.ReportText.empty() : R.File.empty()) {
      C->writeLine(errorLine(R.Id, toExit(ExitCode::Usage),
                             R.Op == "explain"
                                 ? "explain request needs `report`"
                                 : "request needs `file`"));
      continue;
    }

    // Admission. The accepted line is written under QMu so no worker can
    // pop this job (QCv waiters need the lock) before the client has been
    // told it was admitted.
    {
      std::lock_guard<std::mutex> G(S.QMu);
      ++S.Total;
      if (S.Draining) {
        ++S.Rejected;
        C->writeLine(rejectLine(R.Id, "shutting_down", S.Opt.RetryAfterMs));
        continue;
      }
      if (S.Queue.size() >= S.Opt.MaxQueue) {
        ++S.Rejected;
        C->writeLine(rejectLine(R.Id, "queue_full", S.Opt.RetryAfterMs));
        continue;
      }
      ++S.Accepted;
      S.Queue.push_back(Job{C, std::move(R)});
      C->writeLine(acceptLine(S.Queue.back().R.Id, S.Queue.size()));
    }
    S.QCv.notify_one();
  }
}

// -------------------------------------------------------------- listeners

int listenUnix(const std::string &Path, std::ostream &ES) {
  sockaddr_un SU{};
  SU.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SU.sun_path)) {
    ES << "serve: socket path too long: " << Path << "\n";
    return -1;
  }
  std::memcpy(SU.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    ES << "serve: socket: " << std::strerror(errno) << "\n";
    return -1;
  }
  ::unlink(Path.c_str()); // stale socket from a previous run
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SU), sizeof(SU)) != 0 ||
      ::listen(Fd, 64) != 0) {
    ES << "serve: cannot listen on " << Path << ": " << std::strerror(errno)
       << "\n";
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int listenTcp(unsigned Port, std::ostream &ES) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    ES << "serve: socket: " << std::strerror(errno) << "\n";
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in SA{};
  SA.sin_family = AF_INET;
  SA.sin_port = htons(static_cast<uint16_t>(Port));
  SA.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // loopback only, by design
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) != 0 ||
      ::listen(Fd, 64) != 0) {
    ES << "serve: cannot listen on 127.0.0.1:" << Port << ": "
       << std::strerror(errno) << "\n";
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

// ------------------------------------------------------------------ daemon

int runServe(const ServeOptions &Opt, std::ostream &OS, std::ostream &ES) {
  ::signal(SIGPIPE, SIG_IGN); // client disconnects surface as write errors

  Server S(Opt);
  int P[2];
  if (::pipe(P) != 0) {
    ES << "serve: pipe: " << std::strerror(errno) << "\n";
    return toExit(ExitCode::Io);
  }
  S.WakeR = P[0];
  S.WakeW = P[1];
  GWakeW = S.WakeW;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);

  int LFd = listenUnix(Opt.SocketPath, ES);
  if (LFd < 0)
    return toExit(ExitCode::Io);
  int TFd = -1;
  if (Opt.TcpPort) {
    TFd = listenTcp(Opt.TcpPort, ES);
    if (TFd < 0) {
      ::close(LFd);
      ::unlink(Opt.SocketPath.c_str());
      return toExit(ExitCode::Io);
    }
  }

  if (!Opt.Base.Cache.Dir.empty())
    S.Store =
        std::make_unique<store::CacheStore>(Opt.Base.Cache.storeOptions());

  std::vector<std::thread> Workers;
  Workers.reserve(Opt.Workers);
  for (unsigned I = 0; I < Opt.Workers; ++I)
    Workers.emplace_back([&S] { workerLoop(S); });

  OS << "serve: listening on " << Opt.SocketPath;
  if (Opt.TcpPort)
    OS << " and 127.0.0.1:" << Opt.TcpPort;
  OS << " (" << Opt.Workers << " worker(s), queue " << Opt.MaxQueue << ")\n";
  OS.flush();

  for (;;) {
    struct pollfd PF[3];
    int N = 0;
    PF[N++] = {S.WakeR, POLLIN, 0};
    PF[N++] = {LFd, POLLIN, 0};
    if (TFd >= 0)
      PF[N++] = {TFd, POLLIN, 0};
    int RC = ::poll(PF, static_cast<nfds_t>(N), -1);
    if (RC < 0) {
      if (errno == EINTR)
        continue; // the handler's pipe byte shows up on the next poll
      ES << "serve: poll: " << std::strerror(errno) << "\n";
      break;
    }
    if (PF[0].revents)
      break; // signal or `shutdown` request: drain
    for (int I = 1; I < N; ++I) {
      if (!(PF[I].revents & POLLIN))
        continue;
      int CFd = ::accept(PF[I].fd, nullptr, nullptr);
      if (CFd < 0)
        continue;
      std::shared_ptr<Conn> C = std::make_shared<Conn>(CFd);
      {
        std::lock_guard<std::mutex> G(S.ConnMu);
        S.Conns.push_back(C);
      }
      S.ConnThreads.emplace_back([&S, C] { connLoop(S, C); });
    }
  }

  // Drain: stop admitting, finish everything already accepted, then cut
  // the readers loose and exit cleanly. In-flight work is never killed.
  {
    std::lock_guard<std::mutex> G(S.QMu);
    S.Draining = true;
  }
  ::close(LFd);
  ::unlink(Opt.SocketPath.c_str());
  if (TFd >= 0)
    ::close(TFd);
  {
    std::unique_lock<std::mutex> L(S.QMu);
    S.DrainCv.wait(L, [&S] { return S.Queue.empty() && S.InFlight == 0; });
    S.Stopping = true;
  }
  S.QCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  {
    std::lock_guard<std::mutex> G(S.ConnMu);
    for (std::weak_ptr<Conn> &WP : S.Conns)
      if (std::shared_ptr<Conn> C = WP.lock())
        ::shutdown(C->Fd, SHUT_RDWR); // unparks readLineBlocking with EOF
  }
  for (std::thread &T : S.ConnThreads)
    T.join();
  GWakeW = -1;
  ::close(S.WakeR);
  ::close(S.WakeW);
  OS << "serve: drained, exiting\n";
  return toExit(ExitCode::Ok);
}

// ------------------------------------------------------------------ client

int runServeClient(const ServeOptions &Opt,
                   const driver::ExplainOptions &Filter, std::ostream &OS,
                   std::ostream &ES) {
  std::string Req = "{\"op\":\"" + Opt.Op + "\",\"id\":\"cli\"";
  if (Opt.Op == "lift" || Opt.Op == "check") {
    // The daemon resolves the path, so send it absolute: the client's cwd
    // is not the daemon's.
    std::error_code EC;
    std::filesystem::path Abs = std::filesystem::absolute(Opt.File, EC);
    Req += ",\"file\":\"" +
           diag::jsonEscape(EC ? Opt.File : Abs.string()) + "\"";
    const hg::LiftConfig &L = Opt.Base.Lift, Def;
    if (Opt.Base.Library)
      Req += ",\"library\":true";
    if (L.MaxSeconds != Def.MaxSeconds)
      Req += ",\"max_seconds\":" + std::to_string(L.MaxSeconds);
    if (L.MaxVertices != Def.MaxVertices)
      Req += ",\"max_insns\":" + std::to_string(L.MaxVertices);
  } else if (Opt.Op == "explain") {
    std::optional<std::vector<uint8_t>> Bytes = readFileBytes(Opt.File);
    if (!Bytes) {
      ES << "serve: cannot read " << Opt.File << "\n";
      return toExit(ExitCode::Io);
    }
    Req += ",\"report\":\"" +
           diag::jsonEscape(std::string(Bytes->begin(), Bytes->end())) + "\"";
    if (!Filter.FunctionFilter.empty())
      Req += ",\"function\":\"" + diag::jsonEscape(Filter.FunctionFilter) +
             "\"";
    if (!Filter.AddrFilter.empty())
      Req += ",\"addr\":\"" + diag::jsonEscape(Filter.AddrFilter) + "\"";
  }
  Req += "}\n";

  sockaddr_un SU{};
  SU.sun_family = AF_UNIX;
  if (Opt.SocketPath.size() >= sizeof(SU.sun_path)) {
    ES << "serve: socket path too long: " << Opt.SocketPath << "\n";
    return toExit(ExitCode::Usage);
  }
  std::memcpy(SU.sun_path, Opt.SocketPath.c_str(), Opt.SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&SU), sizeof(SU)) != 0) {
    ES << "serve: cannot connect to " << Opt.SocketPath << ": "
       << std::strerror(errno) << "\n";
    if (Fd >= 0)
      ::close(Fd);
    return toExit(ExitCode::Io);
  }
  ::signal(SIGPIPE, SIG_IGN);
  if (!shard::writeAll(Fd, Req)) {
    ES << "serve: cannot send request\n";
    ::close(Fd);
    return toExit(ExitCode::Io);
  }

  std::string Buf;
  int Exit = toExit(ExitCode::Ok);
  bool Terminal = false;
  while (!Terminal) {
    std::optional<std::string> Line = shard::readLineBlocking(Fd, Buf);
    if (!Line) {
      ES << "serve: connection closed mid-request\n";
      Exit = toExit(ExitCode::Io);
      break;
    }
    OS << *Line << "\n";
    std::optional<diag::JValue> D = diag::parseJson(*Line);
    if (!D || !D->isObj())
      continue;
    std::string Ev = D->str("event");
    if (Ev == "result") {
      Exit = static_cast<int>(D->num("exit", 0));
      // The unescaped payload — for explain the narrative text, else the
      // report JSON, byte-identical to a CLI --report-json file.
      std::string Payload =
          Opt.Op == "explain" ? D->str("text") : D->str("report");
      if (!driver::writeArtifact(Opt.ReportOut, "", [&](std::ostream &Out) {
            Out << Payload;
          }))
        Exit = toExit(ExitCode::Io);
    } else if (Ev == "error") {
      Exit = static_cast<int>(D->num("exit", toExit(ExitCode::Fail)));
      Terminal = true;
    } else if (Ev == "rejected") {
      Exit = toExit(ExitCode::Fail);
      Terminal = true;
    } else if (Ev == "done" || Ev == "metrics") {
      Terminal = true;
    }
  }
  ::close(Fd);
  return Exit;
}

} // namespace hglift::serve
