#include "api/Hglift.h"

#include "driver/Report.h"

namespace hglift {

Session::Session(const elf::BinaryImage &Img, Options O)
    : Img(Img), Opt(std::move(O)) {
  if (Opt.Cache.Shared) {
    CacheRef = Opt.Cache.Shared;
  } else if (!Opt.Cache.Dir.empty()) {
    Cache = std::make_unique<store::CacheStore>(Opt.Cache.storeOptions());
    CacheRef = Cache.get();
  }
  Opt.Lift.Cache = CacheRef;
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
  if (!Checked) {
    Check = exporter::checkBinary(exporter::CheckContext{Img, Opt.Lift.Sym},
                                  lift(), Opt.Lift.Threads);
    Checked = true;
  }
  return Check;
}

driver::ExitCode Session::verdict(bool WithCheck) {
  bool Proven = !WithCheck || check().allProven();
  return lift().Outcome == hg::LiftOutcome::Lifted && Proven
             ? driver::ExitCode::Ok
             : driver::ExitCode::Fail;
}

void Session::printReport(std::ostream &OS, bool Verbose) {
  driver::printBinaryReport(OS, lift(), Verbose);
}

void Session::writeStatsJson(std::ostream &OS) {
  driver::writeStatsJson(OS, lift());
}

void Session::writeReportJson(std::ostream &OS) {
  driver::writeReportJson(OS, lift(), Checked ? &Check : nullptr, witnesses());
}

std::optional<store::CacheStats> Session::cacheStats() const {
  if (!CacheRef)
    return std::nullopt;
  return CacheRef->stats();
}

} // namespace hglift
