// Unit tests for the benchmark's ratio, percentile and RSS helpers.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

TEST(Ratio, DividesAndGuardsZero) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(0.0, 0.0), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);  // rank 0.75
  EXPECT_DOUBLE_EQ(percentile(v, 99), 3.97);  // rank 2.97
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 250), 2.0);  // q clamps to 100
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0, 100.0}), 4.0);
}

TEST(ParseVmHwm, ReadsTheKilobyteField) {
  const char* status =
      "Name:\tspider_perfbench\n"
      "VmPeak:\t  123456 kB\n"
      "VmHWM:\t   20480 kB\n"
      "VmRSS:\t   10240 kB\n";
  ASSERT_TRUE(parse_vm_hwm_kb(status).has_value());
  EXPECT_EQ(*parse_vm_hwm_kb(status), 20480);
}

TEST(ParseVmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_vm_hwm_kb("VmRSS:\t 10 kB\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_kb("VmHWM:\t abc kB\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_kb("VmHWM:\t 10\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_kb("").has_value());
  EXPECT_TRUE(parse_vm_hwm_kb("VmHWM: 10 kB").has_value());  // no newline
}

TEST(PeakRss, ResetForgetsAnEarlierPeak) {
  const double before = peak_rss_mb();
  EXPECT_GT(before, 0.0);
  // mmap/munmap directly, so the block leaves the resident set on release
  // whatever the allocator (or a sanitizer's quarantine) would keep.
  constexpr std::size_t kBytes = 64u << 20;
  void* block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, kBytes);
  EXPECT_GE(peak_rss_mb(), before + 60.0);
  ASSERT_EQ(munmap(block, kBytes), 0);
  if (!reset_peak_rss()) GTEST_SKIP() << "kernel refuses clear_refs";
  EXPECT_LT(peak_rss_mb(), before + 32.0);
}

}  // namespace
}  // namespace perfbench
