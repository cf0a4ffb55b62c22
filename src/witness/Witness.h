//===- Witness.h - Incorrectness witnesses for verification failures -*- C++//
//
// Every verification failure ships a replayable counterexample. When Step 2
// (or the lifter itself) reports a VerificationError, the abstraction
// *claims* something the binary does not do — so there should exist a
// concrete initial state that drives the emulator (sem::Machine, the
// ground-truth →B of Definition 3.1) to the reported instruction and
// falsifies the claimed clause there. This subsystem searches for that
// state:
//
//   1. candidate initial register files are derived from the violated
//      predicate itself — interval endpoints and range-clause boundary
//      solutions first (pred::Pred::witnessSeeds), then alloc-class
//      representatives (segment base addresses for pointer-shaped
//      registers), then seeded random fill;
//   2. each candidate runs on the bare Machine first (fuzz::arrivesAt);
//      one whose run brings the site up is executed again with the *same*
//      walk the fuzz oracle uses (fuzz::walkFrom), so a confirmed witness
//      violates the very property (Definition 4.4) the oracle enforces,
//      at the reported site;
//   3. a confirmed witness is re-checked through a symbolic-machinery-free
//      replay spec (the violated clause is concretized at confirmation
//      time), reduced with the delta-debugging reducer, and written as a
//      fuzz_repro_witness_* sidecar pair replayable by `hglift fuzz
//      --replay`.
//
// UnsoundnessAnnotations get *reach* witnesses: a concrete run that
// arrives at the annotated instruction, demonstrating the annotation is
// live. Everything is deterministic — candidate order, machine seeds and
// sidecar bytes are pure functions of (search seed, function, site) — so
// witness output is byte-identical across thread counts and hosts.
//
// Layering: this library links fuzz *and* api, so neither may link it.
// Results travel as the plain-data diag::WitnessSummary (diag/Diag.h),
// which the driver's report writer renders and an hglift::Session stores.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_WITNESS_WITNESS_H
#define HGLIFT_WITNESS_WITNESS_H

#include "api/Hglift.h"
#include "export/HoareChecker.h"
#include "hg/Lifter.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hglift::witness {

struct WitnessOptions {
  /// Directory confirmed-witness sidecars are written to. Empty = search
  /// and report only, write nothing.
  std::string Dir;
  /// Max candidate initial states executed per diagnostic site.
  unsigned Budget = 64;
  /// Search master seed; mixed per-site so every site's candidate stream
  /// is independent of every other's.
  uint64_t Seed = 1;
  /// Step bound of each concrete walk (fuzz::walkFrom).
  int MaxSteps = 300;
};

/// Search one diagnostic site of one lifted function. Clean is the binary
/// result F belongs to (the reducer needs its graphs for instruction
/// atoms); ElfBytes, when available, enables reduction and sidecar
/// writing. Returns the record whatever the verdict — an unconfirmed site
/// always carries a Reason, never silence.
diag::WitnessRecord probeSite(const elf::BinaryImage &Img,
                              const hg::BinaryResult &Clean,
                              const hg::FunctionResult &F, uint64_t SiteAddr,
                              diag::DiagKind Kind, const WitnessOptions &Opts,
                              const std::vector<uint8_t> *ElfBytes = nullptr);

/// Search every eligible diagnostic of a lift-and-check run: lifter
/// VerificationErrors and UnsoundnessAnnotations from R, plus Step-2
/// VerificationErrors from Check (null = lift-only run). Sites are
/// deduplicated by (function, addr, kind) in report order.
diag::WitnessSummary searchBinary(const elf::BinaryImage &Img,
                                  const hg::BinaryResult &R,
                                  const exporter::CheckResult *Check,
                                  const WitnessOptions &Opts,
                                  const std::vector<uint8_t> *ElfBytes =
                                      nullptr);

/// Run searchBinary over a Session (Dir/Budget from Options::Witness) and
/// attach the summary (Session::setWitnesses), so the Session's
/// --report-json gains the `witnesses` section. Uses whatever the Session
/// has run: Step-2 diagnostics are searched iff check() ran.
const diag::WitnessSummary &
attachWitnesses(Session &S, const std::vector<uint8_t> *ElfBytes = nullptr);

/// Replay a witness sidecar (kind "hglift-witness"): re-run the recorded
/// concrete state on the sidecar ELF and re-check the concretized claim at
/// the recorded site. 0 = reproduced, 1 = not reproduced, 2 = malformed.
int replayWitness(const std::string &JsonPath, std::ostream &Log);

/// Replay any reproducer sidecar, dispatching on its "kind" field:
/// "hglift-witness" here, "hglift-fuzz-reproducer" to
/// fuzz::replayReproducer. Same exit codes as both.
int replayAny(const std::string &JsonPath, std::ostream &Log);

} // namespace hglift::witness

#endif // HGLIFT_WITNESS_WITNESS_H
