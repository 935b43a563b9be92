// Strict command-line parsing for the tools (xlv_campaign, xlv_campaignd,
// bench_compare).
//
// Each tool declares ONE flag table. A row gives a flag's spellings, the
// field it sets and the subcommands that read it, and parseCommandLine walks
// one subcommand's arguments against that table. So which subcommand reads
// which flag is written once, and a flag the subcommand would ignore is an
// error — as are an unknown flag, a missing value, a malformed or
// out-of-range number and a stray operand. Every error names the flag (or
// operand) and the subcommand: a flag that parses is a flag that shapes the
// run. Numbers go through util::parseLongStrict / parseDoubleStrict
// (util/env.h), the parsers of the XLV_* knobs.
#pragma once

#include <climits>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace xlv::util {

/// A malformed command line. The tools print it above their usage text and
/// exit 1.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One row of a tool's flag table.
struct Flag {
  /// Every spelling, e.g. {"-o", "--out"}.
  std::vector<std::string_view> names;
  /// The field the flag sets: a string, an integer in [min, max], a finite
  /// decimal, or a switch (bool) that takes no value.
  std::variant<std::string*, long*, double*, bool*> field;
  /// The subcommands that read it; empty means every subcommand.
  std::vector<std::string_view> commands;
  long min = LONG_MIN;
  long max = LONG_MAX;
};

/// parseCommandLine's operand count for "any number".
inline constexpr std::size_t kAnyOperands = static_cast<std::size_t>(-1);

/// Set the fields of the flags in `args` — the arguments after the
/// subcommand — and return the operands, of which `command` takes exactly
/// `operands` (or any number). `command` selects the rows that apply and
/// names the subcommand in errors ("" for a tool without subcommands).
/// Throws UsageError.
std::vector<std::string> parseCommandLine(const std::vector<Flag>& table,
                                          std::string_view command, std::size_t operands,
                                          const std::vector<std::string>& args);

/// The whole file; std::runtime_error naming the path when it cannot be read.
std::string readFile(const std::string& path);

/// Write `data` to `path`, or to stdout when `path` is empty or "-";
/// std::runtime_error naming the path when it cannot be written.
void writeOutput(const std::string& path, const std::string& data);

}  // namespace xlv::util
