// The tools' command-line parser (util/cli.h): a flag table decides what
// each subcommand accepts, and everything else — a flag of another
// subcommand, an unknown flag, a stray operand, a missing value, a
// malformed number — is a usage error naming the flag and the subcommand.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cli.h"

namespace xlv::util {
namespace {

/// A small tool: run reads --spec, -o/--out and --batch; submit reads
/// --spec; compare reads --tolerance; every subcommand reads --verbose.
struct Tool {
  std::string spec, out;
  long batch = 0;
  double tolerance = 0.25;
  bool verbose = false;

  std::vector<std::string> parse(const std::string& cmd, std::size_t operands,
                                 const std::vector<std::string>& args) {
    const std::vector<Flag> flags = {
        {{"--spec"}, &spec, {"run", "submit"}},
        {{"-o", "--out"}, &out, {"run"}},
        {{"--batch"}, &batch, {"run"}, 0, 64},
        {{"--tolerance"}, &tolerance, {"compare"}},
        {{"--verbose"}, &verbose, {}},
    };
    return parseCommandLine(flags, cmd, operands, args);
  }
};

/// The UsageError message of parsing `args` for `cmd`; fails the test when
/// the line parses.
std::string usageError(const std::string& cmd, std::size_t operands,
                       const std::vector<std::string>& args) {
  Tool t;
  try {
    t.parse(cmd, operands, args);
  } catch (const UsageError& e) {
    return e.what();
  }
  ADD_FAILURE() << cmd << ": the line was accepted";
  return "";
}

void expectNames(const std::string& message, const std::vector<std::string>& words) {
  for (const std::string& w : words) {
    EXPECT_NE(std::string::npos, message.find(w)) << "'" << w << "' not in: " << message;
  }
}

TEST(CommandLine, AcceptsTheFlagsOfTheSubcommandAndReturnsOperands) {
  Tool t;
  EXPECT_EQ((std::vector<std::string>{"a", "b"}),
            t.parse("run", 2, {"a", "--spec", "s.xlv", "--batch", "8", "b", "-o", "-"}));
  EXPECT_EQ("s.xlv", t.spec);
  EXPECT_EQ(8, t.batch);
  EXPECT_EQ("-", t.out);
  EXPECT_FALSE(t.verbose);
  EXPECT_TRUE(t.parse("compare", kAnyOperands, {"--tolerance", "0.5"}).empty());
  EXPECT_EQ(0.5, t.tolerance);
}

TEST(CommandLine, AFlagOfAnotherSubcommandIsAnError) {
  expectNames(usageError("submit", 0, {"--spec", "s", "--batch", "8"}),
              {"submit", "--batch", "run"});
  expectNames(usageError("compare", 0, {"-o", "x"}), {"compare", "-o"});
}

TEST(CommandLine, UnknownFlagsStrayOperandsAndMissingValuesAreErrors) {
  expectNames(usageError("run", 0, {"--spec", "s", "--threads", "7"}), {"run", "--threads"});
  expectNames(usageError("run", 0, {"--spec", "s", "extra"}), {"run", "extra"});
  expectNames(usageError("run", 2, {"a"}), {"run", "2"});
  expectNames(usageError("run", 0, {"--spec"}), {"run", "--spec"});
  expectNames(usageError("run", 0, {"--batch"}), {"run", "--batch"});
}

TEST(CommandLine, NumbersParseStrictly) {
  expectNames(usageError("run", 0, {"--batch", "2x"}), {"run", "--batch", "'2x'"});
  expectNames(usageError("run", 0, {"--batch", "65"}), {"run", "--batch", "'65'", "[0, 64]"});
  expectNames(usageError("run", 0, {"--batch", "-1"}), {"run", "--batch", "'-1'"});
  expectNames(usageError("run", 0, {"--batch", ""}), {"run", "--batch"});
  for (const char* bad : {"25%", "0,25", "0.25x", "inf", "nan", " 1", "0x1p-2"}) {
    expectNames(usageError("compare", 0, {"--tolerance", bad}),
                {"compare", "--tolerance", std::string("'") + bad + "'"});
  }
}

TEST(CommandLine, OutHasTwoSpellingsAndVerboseIsReadEverywhere) {
  for (const char* spelling : {"-o", "--out"}) {
    Tool t;
    t.parse("run", 0, {spelling, "r.xlv"});
    EXPECT_EQ("r.xlv", t.out) << spelling;
  }
  for (const char* cmd : {"run", "submit", "compare"}) {
    Tool t;
    t.parse(cmd, 0, {"--verbose"});
    EXPECT_TRUE(t.verbose) << cmd;
  }
}

}  // namespace
}  // namespace xlv::util
