// The checked-in BENCH_throughput.json is the baseline later runs are read
// against, so it must carry the schema bench_throughput writes today.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"

namespace spider {
namespace {

TEST(BenchThroughputJson, CheckedInFileCarriesCurrentSchema) {
  const std::string path =
      std::string(SPIDER_REPO_ROOT) + "/BENCH_throughput.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::string expected = "\"schema_version\": " +
                               std::to_string(bench::kThroughputSchemaVersion) +
                               ",";
  EXPECT_NE(text.str().find(expected), std::string::npos)
      << path << " lacks " << expected
      << " — regenerate it with bench_throughput after a schema change";
}

}  // namespace
}  // namespace spider
