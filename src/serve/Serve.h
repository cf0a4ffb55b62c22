//===- Serve.h - hglift serve: a persistent lifting service ----*- C++ -*-===//
//
// `hglift serve` keeps the lifter warm between invocations. A long-lived
// daemon listens on a Unix-domain socket (optionally also 127.0.0.1 TCP)
// and answers lift / check / explain / metrics / shutdown requests framed
// as JSON Lines — one JSON object per '\n'-terminated line in each
// direction, the same byte-level framing the shard claim protocol uses
// (shard/LineProto.h). The full wire contract — every request and response
// field, the error taxonomy, backpressure and dedup semantics — is
// specified in docs/SERVE.md and versioned by ServeSchemaVersion below;
// every response line carries that number.
//
// What stays warm across requests:
//   - one content-addressed artifact store (store/Store.h) over
//     --cache-dir, shared by every worker thread: two clients submitting
//     identical instruction bytes pay for one lift, and the second gets a
//     Step-2-re-proven hit, never a trusted one;
//   - an in-memory LRU memo of whole-file responses (--memo-max), so a
//     byte-identical resubmission skips even the ELF parse.
// The report payload inside a `result` event is produced by the same
// Session::writeReportJson the CLI's --report-json uses, so a warm serve
// response is byte-identical to a cold CLI run's report file.
//
// Admission control: requests past a bounded queue depth (--max-queue) are
// rejected immediately with a structured `rejected` event carrying
// retry_after_ms — a 429, not a hang. SIGTERM/SIGINT (or a `shutdown`
// request) drain: stop accepting, finish queued work, then exit 0.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SERVE_SERVE_H
#define HGLIFT_SERVE_SERVE_H

#include "api/Hglift.h"
#include "driver/Explain.h"

#include <iosfwd>
#include <string>

namespace hglift::serve {

/// Protocol revision stamped on every response line as
/// "serve_schema_version". Bump on any incompatible change to the JSONL
/// schemas in docs/SERVE.md; golden tests lock the rendered bytes per
/// version.
inline constexpr int ServeSchemaVersion = 1;

/// The request ops the daemon answers (and `--client --op` accepts).
inline constexpr const char *RequestOps[] = {"lift", "check", "explain",
                                             "metrics", "shutdown"};

/// Everything `hglift serve` (daemon and client mode) can be configured
/// with. Plain data, filled by the flag table (driver/Flags.h).
struct ServeOptions {
  /// Daemon: what every served Session lifts with. Its Cache is the
  /// artifact store all workers share, Library the default for requests
  /// that omit `library`, and Lift.MaxSeconds /
  /// Lift.MaxVertices the caps a request's max_seconds / max_insns may
  /// lower but never raise (a wall cap of 0 is no limit, so the request's
  /// budget applies). Sessions always run single-threaded: --threads is
  /// the worker-pool size. Witness.Dir non-empty adds the witness search
  /// a CLI `check --witness-dir` run performs to every `check` request.
  /// Client: Library and the two budgets are sent as request fields when
  /// they differ from their defaults.
  Options Base;
  std::string SocketPath; ///< --socket PATH (required, both modes)
  unsigned TcpPort = 0;   ///< --tcp-port N: also listen on 127.0.0.1:N
  unsigned Workers = 1;   ///< --threads N: lifting worker threads
  unsigned MaxQueue = 64; ///< --max-queue N: admission-control bound
  unsigned MemoMax = 128; ///< --memo-max N: LRU response memo (0 = off)
  unsigned RetryAfterMs = 100; ///< --retry-after-ms N: advertised backoff

  // Client mode (--client): connect, submit one request, stream the
  // response lines to stdout, exit with the result's exit code.
  bool Client = false;
  std::string Op = "lift"; ///< --op, one of RequestOps
  std::string File;      ///< positional: binary (lift/check), report (explain)
  std::string ReportOut; ///< --report-out F: unescaped report payload

  bool operator==(const ServeOptions &) const = default;
};

/// Run the daemon: listen on Opt.SocketPath (and TcpPort), serve requests
/// until SIGTERM/SIGINT or a `shutdown` request, drain, return a process
/// exit code (driver/ExitCode.h).
int runServe(const ServeOptions &Opt, std::ostream &OS, std::ostream &ES);

/// Client mode: submit one request to a running daemon and stream every
/// response line to OS; an explain request carries Filter's --function and
/// --addr. Returns the result's exit code (rejection maps to Fail,
/// transport loss to Io).
int runServeClient(const ServeOptions &Opt,
                   const driver::ExplainOptions &Filter, std::ostream &OS,
                   std::ostream &ES);

} // namespace hglift::serve

#endif // HGLIFT_SERVE_SERVE_H
