// The three tools reject every flag their subcommand does not read
// (util/cli.h flag tables) with exit 1 and a message naming the flag or
// operand and the subcommand, and accept the lines CI and the worker pool
// send them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/subprocess.h"

namespace xlv {
namespace {

namespace fs = std::filesystem;

#if defined(XLV_CAMPAIGN_BIN) && defined(XLV_CAMPAIGND_BIN) && defined(XLV_BENCH_COMPARE_BIN)

/// A temporary directory for one test, removed with it.
struct TempDir {
  fs::path path = fs::temp_directory_path() /
                  ("xlv-toolflags-" + std::to_string(::getpid()) + "-" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name());
  TempDir() { fs::create_directories(path); }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string operator/(const char* name) const { return (path / name).string(); }
};

TEST(ToolFlags, AFlagTheSubcommandDoesNotReadExitsOneNamingIt) {
  const TempDir dir;
  const std::string S = dir / "S", A = dir / "A", B = dir / "B", F = dir / "F";
  // Each line, and what its error line names: the flag or operand, and the
  // subcommand (bench_compare has none; it names itself).
  const struct {
    std::vector<std::string> argv;
    const char* named;
    const char* command;
  } rejected[] = {
      {{XLV_CAMPAIGN_BIN, "run", "--spec", S, "--threads", "7"}, "--threads", "run"},
      {{XLV_CAMPAIGN_BIN, "run", "--spec", S, "--max-fragment", "3"}, "--max-fragment", "run"},
      {{XLV_CAMPAIGN_BIN, "run", "--spec", S, "--preset", "smoke"}, "--preset", "run"},
      {{XLV_CAMPAIGN_BIN, "run", "--spec", S, "extra"}, "'extra'", "run"},
      {{XLV_CAMPAIGN_BIN, "diff", A, B, "--threads", "3"}, "--threads", "diff"},
      {{XLV_CAMPAIGN_BIN, "show", A, "--spec", S}, "--spec", "show"},
      {{XLV_CAMPAIGN_BIN, "spec", "--preset", "single", "--spec", S}, "--spec", "spec"},
      {{XLV_CAMPAIGN_BIN, "cache-gc", "--cache-dir", dir / "D", "-o", dir / "Z"},
       "-o",
       "cache-gc"},
      {{XLV_CAMPAIGND_BIN, "run", "--spec", S, "--socket", dir / "P"}, "--socket", "run"},
      {{XLV_CAMPAIGND_BIN, "run", "--spec", S, "--max-campaigns", "3"},
       "--max-campaigns",
       "run"},
      {{XLV_CAMPAIGND_BIN, "run", "--spec", S, "--generation", "2"}, "--generation", "run"},
      {{XLV_CAMPAIGND_BIN, "worker", "--index", "0", "--generation", "0", "--workers", "9"},
       "--workers", "worker"},
      {{XLV_CAMPAIGND_BIN, "worker", "--index", "0", "--generation", "0", "--ledger",
        dir / "L"},
       "--ledger", "worker"},
      {{XLV_BENCH_COMPARE_BIN, "--baseline", F, "--current", F, "--tolerance", "25%"},
       "'25%'", "bench_compare"},
      {{XLV_BENCH_COMPARE_BIN, "--baseline", F, "--current", F, "--tolerance", "0.25x"},
       "'0.25x'", "bench_compare"},
  };
  for (const auto& r : rejected) {
    const util::SubprocessResult res = util::runCommandCapture(r.argv);
    std::string line;
    for (std::size_t i = 1; i < r.argv.size(); ++i) line += r.argv[i] + " ";
    ASSERT_TRUE(res.started) << line;
    EXPECT_EQ(1, res.exitCode) << line << "\n" << res.output;
    // The error line comes before the usage text, which lists every flag.
    const std::string error = res.output.substr(0, res.output.find('\n'));
    EXPECT_NE(std::string::npos, error.find(r.named)) << line << "\n" << error;
    EXPECT_NE(std::string::npos, error.find(r.command)) << line << "\n" << error;
  }
}

// A store cap with no store would be dropped: every subcommand that reads
// --cache-max-bytes rejects it without --cache-dir.
TEST(ToolFlags, ACacheCapWithoutACacheDirExitsOne) {
  const TempDir dir;
  const std::string S = dir / "S";
  ASSERT_TRUE(
      util::runCommandCapture({XLV_CAMPAIGN_BIN, "spec", "--preset", "single", "--out", S})
          .ok());
  const std::vector<std::vector<std::string>> rejected = {
      {XLV_CAMPAIGN_BIN, "run", "--spec", S, "--cache-max-bytes", "5"},
      {XLV_CAMPAIGND_BIN, "run", "--spec", S, "--workers", "1", "--cache-max-bytes", "5"},
      {XLV_CAMPAIGND_BIN, "serve", "--socket", dir / "P", "--cache-max-bytes", "5"},
      {XLV_CAMPAIGND_BIN, "worker", "--index", "0", "--generation", "0", "--cache-max-bytes",
       "5"},
  };
  for (const auto& argv : rejected) {
    const util::SubprocessResult res = util::runCommandCapture(argv);
    ASSERT_TRUE(res.started) << argv[0] << " " << argv[1];
    EXPECT_EQ(1, res.exitCode) << argv[0] << " " << argv[1] << "\n" << res.output;
    const std::string error = res.output.substr(0, res.output.find('\n'));
    EXPECT_NE(std::string::npos, error.find("--cache-max-bytes needs --cache-dir"))
        << argv[0] << " " << argv[1] << "\n" << error;
  }
  EXPECT_FALSE(fs::exists(dir / "P"));
}

TEST(ToolFlags, EachToolAcceptsTheLinesItIsSent) {
  const TempDir dir;
  const std::string spec = dir / "spec.xlv", report = dir / "BENCH_x.json";
  std::ofstream(report) << "{\"bench\": \"x\", \"metrics\": {\"cycles\": 7}}\n";
  const std::vector<std::vector<std::string>> accepted = {
      {XLV_CAMPAIGN_BIN, "spec", "--preset", "single", "--threads", "2", "--verbose", "--out",
       spec},
      // The worker pool's own command line (stdin is /dev/null: the worker
      // reads end-of-stream and exits cleanly).
      {XLV_CAMPAIGND_BIN, "worker", "--cache-dir", dir / "cache", "--cache-max-bytes",
       "1048576", "--index", "0", "--generation", "0", "--heartbeat-ms", "50"},
      {XLV_BENCH_COMPARE_BIN, "--baseline-dir", dir.path.string(), "--tolerance", "0.25",
       report},
  };
  for (const auto& argv : accepted) {
    const util::SubprocessResult res = util::runCommandCapture(argv);
    EXPECT_TRUE(res.ok()) << argv[0] << " " << argv[1] << "\n" << res.output;
  }
  EXPECT_TRUE(fs::exists(spec));
}

#else

TEST(ToolFlags, SkippedWithoutTools) {
  GTEST_SKIP() << "built without the tool binaries (tools disabled)";
}

#endif

}  // namespace
}  // namespace xlv
