//===- Explain.h - Root-cause narratives from --report-json ----*- C++ -*-===//
//
// `hglift explain <report.json>` re-reads a machine-readable verification
// report (written by --report-json) and renders the structured diagnostics
// as root-cause narratives: which function, which instruction, which
// postcondition clause, and the relation-query chain that led there.
// It is a pure viewer — it never touches the binary.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_DRIVER_EXPLAIN_H
#define HGLIFT_DRIVER_EXPLAIN_H

#include <ostream>
#include <string>

namespace hglift::driver {

struct ExplainOptions {
  std::string ReportPath;
  /// Only explain the function with this entry address ("0x401000" or
  /// decimal). Empty = all functions.
  std::string FunctionFilter;
  /// Only explain diagnostics at this instruction address. Empty = all.
  std::string AddrFilter;

  bool operator==(const ExplainOptions &) const = default;
};

/// Render the report at Opts.ReportPath to OS; errors go to ES. Returns a
/// process exit code (0 = rendered, 2 = unreadable / malformed /
/// unsupported schema version).
int runExplain(const ExplainOptions &Opts, std::ostream &OS,
               std::ostream &ES);

/// Same rendering, but over an in-memory report document instead of a file
/// — the entry point `hglift serve` uses for `explain` requests, where the
/// report text arrives over the wire. SourceName is only used in error
/// messages. Opts.ReportPath is ignored.
int runExplainText(const std::string &Text, const ExplainOptions &Opts,
                   std::ostream &OS, std::ostream &ES,
                   const std::string &SourceName = "(inline report)");

} // namespace hglift::driver

#endif // HGLIFT_DRIVER_EXPLAIN_H
