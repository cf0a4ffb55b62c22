//===- Hglift.h - The libhglift public facade ------------------*- C++ -*-===//
//
// One entry point for every consumer of the lifter — the CLI, the fuzz
// campaign, the benchmarks, and the tests all drive lifting through this
// header instead of wiring Lifter/CacheStore/checkBinary together by hand:
//
//   hglift::Options O;
//   O.Lift.Threads = 4;
//   O.Cache.Dir = "/var/cache/hglift";      // optional incremental store
//   hglift::Session S(Img, O);
//   const hg::BinaryResult &R = S.lift();    // Step 1 (cache-aware)
//   const exporter::CheckResult &C = S.check(); // Step 2
//   S.writeReportJson(Out);                  // includes C iff check() ran
//
// Cache semantics: when Cache.Dir is set, lifts consult the content-
// addressed store (store/Store.h). Hits skip Algorithm 1 but are re-proven
// through the Step-2 checker before being returned, so a warm run makes
// exactly the same soundness claim as a cold one. Each hit carries its
// proof's theorem count, which check() counts instead of proving the same
// edges twice; because every hit was fully proven, a warm check() is
// byte-for-byte identical to a cold one in the report, and substantially
// faster.
//
// A Session is single-owner and not thread-safe; internal lifting/checking
// parallelism is controlled by Options::Lift.Threads as usual.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_API_HGLIFT_H
#define HGLIFT_API_HGLIFT_H

#include "driver/ExitCode.h"
#include "export/HoareChecker.h"
#include "hg/Lifter.h"
#include "store/Store.h"

#include <memory>
#include <optional>
#include <ostream>
#include <string>

namespace hglift {

/// Everything a lift-and-check run can be configured with. Plain data;
/// copy, fill in, hand to a Session. Related knobs live in nested plain-
/// data sub-structs (Cache, Witness) so call sites read as
/// `O.Cache.Dir = ...` and new knobs have an obvious home. `hglift shard`
/// and `hglift serve` embed one of these (ShardOptions::Base,
/// ServeOptions::Base), so every lifting flag means the same thing in
/// every subcommand (driver/Flags.h).
struct Options {
  /// Step-1 configuration (threads, fuel, ablations, VSA in Lift.Sym,
  /// ...). The Session sets Options::Lift.Cache from Cache; leave it
  /// null. Step 2 checks with the same Lift.Sym.
  hg::LiftConfig Lift;
  /// Lift every exported function symbol instead of following calls from
  /// the ELF entry point (shared-object mode, paper §5.1).
  bool Library = false;

  /// The incremental artifact store (store/Store.h).
  struct CacheOptions {
    /// Directory of the content-addressed store. Empty = no cache.
    /// Created on first use; safe to share between concurrent processes.
    std::string Dir;
    /// Byte budget for the store's objects/ directory in MiB (0 = no
    /// limit). Exceeding it after a store evicts least-recently-used
    /// entries.
    uint64_t MaxMB = 0;
    /// Use this already-open store instead of constructing one from Dir
    /// (which is then ignored). Non-owning; must outlive the Session.
    /// This is how a long-lived host — the `hglift serve` daemon — keeps
    /// one warm store across many Sessions: the counters accumulate a
    /// cross-request picture. Any number of Sessions, concurrent ones
    /// included, may share one instance: every hit carries its own proof,
    /// so nothing of one Session's lookups reaches another's report.
    store::CacheStore *Shared = nullptr;

    /// The store configuration Dir and MaxMB describe.
    store::CacheStore::Options storeOptions() const {
      return {Dir, MaxMB * 1024 * 1024};
    }
    bool operator==(const CacheOptions &) const = default;
  };
  CacheOptions Cache;

  /// Incorrectness witnesses: when Witness.Dir is non-empty, a check run
  /// is followed by a witness search (src/witness) over every VerifError
  /// and unsoundness annotation; confirmed witnesses land in Witness.Dir
  /// as replayable fuzz_repro_witness_* sidecar pairs and the report gains
  /// a `witnesses` section. The Session only stores the summary (see
  /// setWitnesses); the search itself is driven by
  /// witness::attachWitnesses so the api layer does not depend on the
  /// searcher.
  struct WitnessOptions {
    std::string Dir;
    /// Max candidate initial states executed per diagnostic site.
    unsigned Budget = 64;
    bool operator==(const WitnessOptions &) const = default;
  };
  WitnessOptions Witness;

  bool operator==(const Options &) const = default;
};

/// One lift-and-check run over one binary image. Owns the Lifter, the
/// optional cache store, and the results; lift() and check() are memoized
/// so report writers can be called in any order afterwards.
class Session {
public:
  /// Img must outlive the Session (results hold pointers into it).
  Session(const elf::BinaryImage &Img, Options Opt);
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Run Step 1 (or replay it from the cache). Memoized.
  const hg::BinaryResult &lift();

  /// Run Step 2 over the lifted result (lifting first if needed): one
  /// theorem per Hoare Graph edge, over Options::Lift.Threads workers.
  /// Cache hits, already re-proven at lookup, are counted rather than
  /// proven again (exporter::checkBinary), which keeps warm output
  /// identical to cold. Memoized.
  const exporter::CheckResult &check();

  /// The run's exit code (driver/ExitCode.h): Ok iff the binary lifted
  /// and, when WithCheck, every Hoare triple proved. Runs check() when
  /// WithCheck, whatever the lift outcome.
  driver::ExitCode verdict(bool WithCheck);
  /// Whether check() has run (writeReportJson includes its summary iff so).
  bool checked() const { return Checked; }
  /// The memoized Step-2 result, or null before check().
  const exporter::CheckResult *checkResult() const {
    return Checked ? &Check : nullptr;
  }

  /// Human-readable per-binary report (outcome, Table 1 columns, stats,
  /// diagnostics); Verbose additionally dumps every Hoare Graph.
  void printReport(std::ostream &OS, bool Verbose = false);
  /// The --stats-json payload.
  void writeStatsJson(std::ostream &OS);
  /// The --report-json payload; includes the Step-2 summary iff check()
  /// has run and the `witnesses` section iff a witness summary was
  /// attached. Bytes are identical for every thread count and for warm vs
  /// cold cache runs.
  void writeReportJson(std::ostream &OS);

  /// Attach the result of a witness search (witness::attachWitnesses does
  /// this); writeReportJson renders it as the `witnesses` section.
  void setWitnesses(diag::WitnessSummary W) {
    Witnesses = std::move(W);
    HasWitnesses = true;
  }
  /// The attached witness summary, or null when no search ran.
  const diag::WitnessSummary *witnesses() const {
    return HasWitnesses ? &Witnesses : nullptr;
  }

  const elf::BinaryImage &image() const { return Img; }
  const Options &options() const { return Opt; }
  /// Store counters (hits, misses, validations, evictions), or nullopt
  /// when no store was configured.
  std::optional<store::CacheStats> cacheStats() const;

private:
  const elf::BinaryImage &Img;
  Options Opt;
  std::unique_ptr<store::CacheStore> Cache; ///< owned; null when none or shared
  store::CacheStore *CacheRef = nullptr;    ///< owned or Options::Cache.Shared
  std::unique_ptr<hg::Lifter> Lifter;

  bool Lifted = false;
  hg::BinaryResult Result;
  bool Checked = false;
  exporter::CheckResult Check;
  bool HasWitnesses = false;
  diag::WitnessSummary Witnesses;
};

} // namespace hglift

#endif // HGLIFT_API_HGLIFT_H
