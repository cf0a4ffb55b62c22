//===- Report.h - Human-readable lifting reports ---------------*- C++ -*-===//

#ifndef HGLIFT_DRIVER_REPORT_H
#define HGLIFT_DRIVER_REPORT_H

#include "export/HoareChecker.h"
#include "hg/Lifter.h"

#include <functional>
#include <ostream>
#include <string>

namespace hglift::driver {

/// Print the per-binary report: outcome, statistics (the Table 1 columns),
/// lift-stats totals, annotations, obligations, weird edges.
void printBinaryReport(std::ostream &OS, const hg::BinaryResult &R,
                       bool Verbose = false);

/// Print a function's Hoare Graph: vertices with invariants, edges with
/// instructions (the Figure 1 view).
void printHoareGraph(std::ostream &OS, const hg::FunctionResult &F);

/// Emit the lifting statistics as JSON (the --stats-json payload): binary
/// outcome, aggregate totals, and one record per function with vertices,
/// joins, widenings, steps, forks, solver/Z3 queries and wall time.
void writeStatsJson(std::ostream &OS, const hg::BinaryResult &R);

/// Emit the machine-readable verification report (the --report-json
/// payload, schema version diag::ReportSchemaVersion): outcome and
/// structured diagnostics with provenance for every function, plus the
/// Step-2 summary when Check is non-null and the `witnesses` section
/// (schema diag::WitnessSchemaVersion) when Witnesses is non-null.
/// Deliberately excludes wall times and worker ordinals so the bytes are
/// identical for every --threads value (see docs/CLI.md).
void writeReportJson(std::ostream &OS, const hg::BinaryResult &R,
                     const exporter::CheckResult *Check = nullptr,
                     const diag::WitnessSummary *Witnesses = nullptr);

/// Write the artifact at Path, when one is given, through Write and
/// announce it on stdout as "wrote What to Path" (silently when What is
/// empty). False, for exit 3 (driver/ExitCode.h), when Path cannot be
/// opened.
bool writeArtifact(const std::string &Path, const std::string &What,
                   const std::function<void(std::ostream &)> &Write);

} // namespace hglift::driver

#endif // HGLIFT_DRIVER_REPORT_H
