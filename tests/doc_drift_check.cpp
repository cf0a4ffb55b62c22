//===- doc_drift_check.cpp - Every registered flag is documented ---------===//
//
// The flag list comes from the flag table (driver/Flags.h), the request
// ops from serve::RequestOps and the schema pins from the version
// constants, so nothing here greps source code:
//
//   * every flag and subcommand word appears in docs/CLI.md;
//   * every serve flag and request op appears in both docs/CLI.md and the
//     wire spec docs/SERVE.md, and both mention serve_schema_version;
//   * the witness flags appear in docs/WITNESSES.md, which, like
//     docs/CLI.md, pins the exact "witness_schema_version N" literal;
//   * the VSA flags appear in docs/VSA.md.
//
//===----------------------------------------------------------------------===//

#include "diag/Diag.h"
#include "driver/Flags.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#ifndef HGLIFT_DOCS_DIR
#error "HGLIFT_DOCS_DIR must point at docs/"
#endif

using namespace hglift;

namespace {

std::string doc(const std::string &Name) {
  std::ifstream In(std::string(HGLIFT_DOCS_DIR) + "/" + Name);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_FALSE(SS.str().empty()) << "docs/" << Name << " is missing";
  return SS.str();
}

/// The flags whose name contains Part, at least one of them.
std::vector<std::string> flagsNamed(const std::string &Part) {
  std::vector<std::string> Out;
  for (const driver::Flag &F : driver::flagTable())
    if (std::string(F.Name).find(Part) != std::string::npos)
      Out.push_back(F.Name);
  EXPECT_FALSE(Out.empty()) << "no flag matches " << Part;
  return Out;
}

void expectDocumented(const std::string &DocName,
                      const std::vector<std::string> &Tokens) {
  std::string Text = doc(DocName);
  for (const std::string &T : Tokens)
    EXPECT_NE(Text.find(T), std::string::npos)
        << T << " is registered but undocumented in docs/" << DocName;
}

TEST(DocDrift, EveryFlagAndSubcommandInCliMd) {
  std::vector<std::string> Tokens;
  for (const driver::Subcommand &S : driver::Subcommands)
    Tokens.push_back(S.Word);
  for (const driver::Flag &F : driver::flagTable())
    Tokens.push_back(F.Name);
  expectDocumented("CLI.md", Tokens);
}

TEST(DocDrift, ServeFlagsAndOpsInCliAndServeMd) {
  std::vector<std::string> Tokens(std::begin(serve::RequestOps),
                                  std::end(serve::RequestOps));
  for (const driver::Flag &F : driver::flagTable())
    if (F.accepts(driver::Command::Serve))
      Tokens.push_back(F.Name);
  Tokens.push_back("serve_schema_version");
  expectDocumented("CLI.md", Tokens);
  expectDocumented("SERVE.md", Tokens);
}

TEST(DocDrift, WitnessFlagsAndSchemaPinned) {
  std::string Pin =
      "witness_schema_version " + std::to_string(diag::WitnessSchemaVersion);
  std::vector<std::string> Tokens = flagsNamed("--witness");
  Tokens.push_back(Pin);
  expectDocumented("WITNESSES.md", Tokens);
  expectDocumented("CLI.md", {Pin});
}

TEST(DocDrift, VsaFlagsInVsaMd) {
  expectDocumented("VSA.md", flagsNamed("vsa"));
}

} // namespace
