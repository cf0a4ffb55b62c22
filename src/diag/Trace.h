//===- Trace.h - Span-based JSON-Lines tracer ------------------*- C++ -*-===//
//
// Structured tracing for the lifting pipeline: one JSON object per line
// (JSON Lines), one line per event. Events cover per-function lift spans
// (lift_begin/lift_end with the full stats payload, including cache
// hit/miss attribution), fixpoint iterations (one per worklist pop),
// uncached relation-solver decisions, and Step-2 spans and edge checks.
//
// Cost model. Tracing is OFF unless a Tracer is installed; every
// instrumentation point is
//
//   if (Tracer *T = Tracer::active()) { ...build and emit... }
//
// where active() is a single relaxed atomic load — unmeasurable on the
// Step-1 hot path. When ON, each event
// renders into a thread-local buffer and is written under one mutex, so
// concurrent workers (--threads N) interleave whole lines, never bytes:
// the output is valid JSON Lines under any schedule (raced under TSAN by
// parallel_lifter_test).
//
// Event order between threads is schedule-dependent; the deterministic
// artifact is --report-json, not the trace.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_DIAG_TRACE_H
#define HGLIFT_DIAG_TRACE_H

#include "diag/Diag.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>
#include <string>

namespace hglift::diag {

/// Builder for one trace event line: {"ev":"...","ts":...,"tid":N, ...}.
/// Field values are JSON-escaped; hex() renders addresses the same
/// "0x..." way every other artifact does.
class TraceEvent {
public:
  explicit TraceEvent(const char *Type);

  TraceEvent &field(const char *Key, uint64_t V);
  TraceEvent &field(const char *Key, int64_t V);
  TraceEvent &field(const char *Key, double V);
  TraceEvent &field(const char *Key, bool V);
  TraceEvent &field(const char *Key, const std::string &V);
  TraceEvent &field(const char *Key, const char *V);
  TraceEvent &hex(const char *Key, uint64_t V);

  /// The finished line, without the trailing newline.
  std::string finish() &&;

private:
  std::string Buf;
};

/// A JSON-Lines event sink. Install one globally with TracerScope (or
/// install()/uninstall()); instrumentation sites check active().
class Tracer {
public:
  /// Events go to OS (one line each). Name tags the trace_begin event
  /// (typically the binary being lifted). Emits trace_begin on
  /// construction and trace_end (with the event count) on destruction.
  explicit Tracer(std::ostream &OS, const std::string &Name = "");
  ~Tracer();

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// The installed tracer, or nullptr. One relaxed atomic load: this is
  /// the whole disabled-path cost.
  static Tracer *active() {
    return Active.load(std::memory_order_relaxed);
  }
  static void install(Tracer *T) {
    Active.store(T, std::memory_order_release);
  }
  static void uninstall() { Active.store(nullptr, std::memory_order_release); }

  /// Stamp ts/tid onto E and write it as one line. Thread-safe.
  void emit(TraceEvent &&E);

  /// Seconds since this tracer was created.
  double now() const;

private:
  static std::atomic<Tracer *> Active;

  std::ostream &OS;
  std::mutex Mu;
  std::chrono::steady_clock::time_point Start;
  uint64_t Events = 0;
};

/// RAII install/uninstall, so no error path can leave a dangling tracer
/// installed.
struct TracerScope {
  explicit TracerScope(Tracer &T) { Tracer::install(&T); }
  ~TracerScope() { Tracer::uninstall(); }
  TracerScope(const TracerScope &) = delete;
  TracerScope &operator=(const TracerScope &) = delete;
};

/// Thread-local trace context: the function the calling worker is
/// currently lifting/checking. Lets lower layers (the relation solver)
/// attribute their events to a function without parameter plumbing.
struct TraceContext {
  static uint64_t currentFunction();

  /// RAII setter, used by the Lifter and the Step-2 checker.
  struct FunctionScope {
    explicit FunctionScope(uint64_t Entry);
    ~FunctionScope();
    FunctionScope(const FunctionScope &) = delete;
    FunctionScope &operator=(const FunctionScope &) = delete;

  private:
    uint64_t Saved;
  };
};

} // namespace hglift::diag

#endif // HGLIFT_DIAG_TRACE_H
