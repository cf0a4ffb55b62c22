#include "api/Hglift.h"

#include "driver/Report.h"

namespace hglift {

Session::Session(const elf::BinaryImage &Img, Options O)
    : Img(Img), Opt(std::move(O)) {
  if (Opt.Cache.Shared) {
    // A host-owned store reused across Sessions: adopt it, and drop any
    // hit-time validations a previous binary left behind — they are keyed
    // by entry address only and must never leak into this report.
    CacheRef = Opt.Cache.Shared;
    CacheRef->resetValidations();
    Opt.Lift.Cache = CacheRef;
  } else if (!Opt.Cache.Dir.empty()) {
    Cache = std::make_unique<store::CacheStore>(Opt.Cache.storeOptions());
    CacheRef = Cache.get();
    Opt.Lift.Cache = CacheRef;
  }
  Lifter = std::make_unique<hg::Lifter>(Img, Opt.Lift);
}

Session::~Session() = default;

const hg::BinaryResult &Session::lift() {
  if (!Lifted) {
    Result = Opt.Library ? Lifter->liftLibrary() : Lifter->liftBinary();
    Lifted = true;
  }
  return Result;
}

const exporter::CheckResult &Session::check() {
  if (Checked)
    return Check;
  const hg::BinaryResult &R = lift();
  exporter::CheckContext CC{Img, Opt.Lift.Sym, nullptr};
  if (CacheRef) {
    // Merge in function-entry order — the same order checkBinary merges —
    // reusing the hit-time Step-2 proofs where the cache has them (every
    // reused result is fully proven; failed validations became misses).
    // Re-proving a hit here would also advance its arena's fresh-variable
    // counter past what a cold run's would be, so reuse is what keeps warm
    // and cold output byte-identical, not just what makes warm runs fast.
    exporter::CheckResult Sum;
    for (const hg::FunctionResult &F : R.Functions) {
      if (std::optional<exporter::CheckResult> V =
              CacheRef->takeValidation(F.Entry))
        Sum.merge(*V);
      else
        Sum.merge(exporter::checkFunction(CC, F));
    }
    Check = std::move(Sum);
  } else {
    Check = exporter::checkBinary(CC, R, Opt.Lift.Threads);
  }
  Checked = true;
  return Check;
}

driver::ExitCode Session::verdict(bool WithCheck) {
  bool Proven = !WithCheck || check().allProven();
  return lift().Outcome == hg::LiftOutcome::Lifted && Proven
             ? driver::ExitCode::Ok
             : driver::ExitCode::Fail;
}

void Session::printReport(std::ostream &OS, bool Verbose) {
  driver::printBinaryReport(OS, lift(), Lifter->exprContext(), Verbose);
}

void Session::writeStatsJson(std::ostream &OS) {
  driver::writeStatsJson(OS, lift());
}

void Session::writeReportJson(std::ostream &OS) {
  driver::writeReportJson(OS, lift(), Checked ? &Check : nullptr, witnesses());
}

expr::ExprContext &Session::scratchContext() { return Lifter->exprContext(); }

std::optional<store::CacheStats> Session::cacheStats() const {
  if (!CacheRef)
    return std::nullopt;
  return CacheRef->stats();
}

} // namespace hglift
