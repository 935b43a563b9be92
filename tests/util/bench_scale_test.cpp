// XLV_BENCH_SCALE is strict: unset or empty means 1, a finite positive
// decimal is the multiplier, and anything else stops the bench with a
// message naming the variable and the value.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench/common.h"

namespace xlv::bench {
namespace {

/// Sets XLV_BENCH_SCALE (or unsets it, for nullopt) for one scope and
/// restores the previous value.
class ScaleEnv {
 public:
  explicit ScaleEnv(const std::optional<std::string>& value) {
    if (const char* old = std::getenv("XLV_BENCH_SCALE")) saved_ = old;
    if (value) {
      ::setenv("XLV_BENCH_SCALE", value->c_str(), 1);
    } else {
      ::unsetenv("XLV_BENCH_SCALE");
    }
  }
  ~ScaleEnv() {
    if (saved_) {
      ::setenv("XLV_BENCH_SCALE", saved_->c_str(), 1);
    } else {
      ::unsetenv("XLV_BENCH_SCALE");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(BenchScale, UnsetOrEmptyMeansOne) {
  {
    ScaleEnv env(std::nullopt);
    EXPECT_EQ(1.0, scale());
    EXPECT_EQ(80u, scaled(80));
  }
  {
    ScaleEnv env{std::string()};
    EXPECT_EQ(1.0, scale());
  }
}

TEST(BenchScale, AcceptsFinitePositiveDecimals) {
  const std::pair<const char*, double> cases[] = {
      {"0.25", 0.25}, {"2", 2.0}, {".5", 0.5}, {"1e-1", 0.1}, {"+3", 3.0}};
  for (const auto& [text, want] : cases) {
    ScaleEnv env{std::string(text)};
    EXPECT_EQ(want, scale()) << text;
  }
  ScaleEnv env{std::string("0.25")};
  EXPECT_EQ(20u, scaled(80));
  EXPECT_EQ(1u, scaled(1)) << "a scaled budget never drops below one cycle";
}

TEST(BenchScale, RejectsEverythingElseNamingTheValue) {
  for (const char* text : {"0,25", "abc", "0", "-1", "0.0", "1x", " 1", "1 ", "inf", "nan",
                           "0x1p-2", "1e999"}) {
    ScaleEnv env{std::string(text)};
    try {
      scale();
      ADD_FAILURE() << "XLV_BENCH_SCALE='" << text << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(std::string::npos, what.find("XLV_BENCH_SCALE")) << what;
      EXPECT_NE(std::string::npos, what.find(std::string("'") + text + "'")) << what;
    }
  }
}

}  // namespace
}  // namespace xlv::bench
