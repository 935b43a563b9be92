#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/env.h"

namespace xlv::util {

namespace {

bool contains(const std::vector<std::string_view>& list, std::string_view s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

std::string joined(const std::vector<std::string_view>& list) {
  std::string out;
  for (const std::string_view s : list) out.append(out.empty() ? "" : ", ").append(s);
  return out;
}

}  // namespace

std::vector<std::string> parseCommandLine(const std::vector<Flag>& table,
                                          std::string_view command, std::size_t operands,
                                          const std::vector<std::string>& args) {
  const std::string where = command.empty() ? "" : std::string(command) + ": ";
  std::vector<std::string> found;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (found.size() == operands) throw UsageError(where + "unexpected operand '" + arg + "'");
      found.push_back(arg);
      continue;
    }
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Flag& f) { return contains(f.names, arg); });
    if (row == table.end()) throw UsageError(where + "unknown flag '" + arg + "'");
    if (!row->commands.empty() && !contains(row->commands, command)) {
      throw UsageError(std::string(command) + " does not read " + arg + " (a flag of " +
                       joined(row->commands) + ")");
    }
    if (bool* const* on = std::get_if<bool*>(&row->field)) {
      **on = true;
      continue;
    }
    if (i + 1 == args.size()) throw UsageError(where + arg + " needs a value");
    const std::string& value = args[++i];
    try {
      if (std::string* const* s = std::get_if<std::string*>(&row->field)) {
        **s = value;
      } else if (long* const* n = std::get_if<long*>(&row->field)) {
        **n = parseLongStrict(arg, value, row->min, row->max);
      } else {
        *std::get<double*>(row->field) = parseDoubleStrict(arg, value);
      }
    } catch (const std::invalid_argument& e) {
      throw UsageError(where + e.what());
    }
  }
  if (operands != kAnyOperands && found.size() != operands) {
    throw UsageError(std::string(command) + " takes " + std::to_string(operands) +
                     " operand(s), got " + std::to_string(found.size()));
  }
  return found;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeOutput(const std::string& path, const std::string& data) {
  if (path.empty() || path == "-") {
    std::fwrite(data.data(), 1, data.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << data)) throw std::runtime_error("cannot write '" + path + "'");
}

}  // namespace xlv::util
