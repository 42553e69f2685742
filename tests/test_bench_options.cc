// The shared bench CLI (bench::parse_runner_options) accepts --seed and
// --threads only as fully consumed decimals, and --threads only up to
// bench::kMaxThreads; anything else is a usage error with exit code 2.
// Only the parser runs here: no runner, pool or bench is ever built from a
// rejected value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/util.h"

namespace flattree::bench {
namespace {

exec::RunnerOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_unit");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_runner_options("unit", static_cast<int>(argv.size()),
                              argv.data(), 7);
}

TEST(BenchOptions, AcceptsDecimals) {
  const exec::RunnerOptions defaults = parse({});
  EXPECT_EQ(defaults.seed, 7u);
  EXPECT_EQ(defaults.threads, 0u);
  const exec::RunnerOptions options =
      parse({"--seed", "18446744073709551615", "--threads", "256"});
  EXPECT_EQ(options.seed, 18446744073709551615u);
  EXPECT_EQ(options.threads, 256u);
  EXPECT_EQ(parse({"--threads", "0"}).threads, 0u);
}

TEST(BenchOptionsDeathTest, RejectsMalformedThreads) {
  for (const char* bad : {"-1", "abc", "", "4x", "0x4", " 4", "257",
                          "4294967296"}) {
    EXPECT_EXIT(parse({"--threads", bad}), ::testing::ExitedWithCode(2),
                "--threads takes a decimal integer <= 256")
        << "--threads '" << bad << "'";
  }
}

TEST(BenchOptionsDeathTest, RejectsMalformedSeed) {
  for (const char* bad : {"12x", "-1", "0x10", "", "1e3",
                          "18446744073709551616"}) {
    EXPECT_EXIT(parse({"--seed", bad}), ::testing::ExitedWithCode(2),
                "--seed takes a decimal integer")
        << "--seed '" << bad << "'";
  }
}

TEST(BenchOptionsDeathTest, RejectsMissingValue) {
  EXPECT_EXIT(parse({"--threads"}), ::testing::ExitedWithCode(2),
              "missing value for --threads");
}

}  // namespace
}  // namespace flattree::bench
