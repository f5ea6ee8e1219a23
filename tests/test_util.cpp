// Unit tests for src/util: RNG, statistics, CSV, tables, money and time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <type_traits>
#include <vector>

#include "test_support.hpp"
#include "util/amount.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace spider {
namespace {

TEST(Assert, ThrowsWithLocationAndMessage) {
  try {
    SPIDER_ASSERT_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  EXPECT_NO_THROW(SPIDER_ASSERT(2 + 2 == 4));
}

TEST(Amount, XrpConversionsRoundTrip) {
  EXPECT_EQ(xrp(170), 170'000);
  EXPECT_EQ(xrp_from_double(1.2345), 1235);  // rounds to nearest milli
  EXPECT_EQ(xrp_from_double(-1.2345), -1235);
  EXPECT_DOUBLE_EQ(to_xrp(xrp(30000)), 30000.0);
}

TEST(Amount, Formatting) {
  EXPECT_EQ(format_xrp(xrp(170)), "170 XRP");
  EXPECT_EQ(format_xrp(170'250), "170.250 XRP");
  EXPECT_EQ(format_xrp(-5), "-0.005 XRP");
}

TEST(Time, SecondsConversions) {
  EXPECT_EQ(seconds(0.5), 500'000);
  EXPECT_EQ(seconds(200.0), 200'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(1.25)), 1.25);
  EXPECT_EQ(milliseconds(3), 3000);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBoundsAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.normal(5.0, 3.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  std::vector<double> draws;
  for (int i = 0; i < 20'000; ++i) draws.push_back(rng.lognormal(2.0, 1.0));
  EXPECT_NEAR(quantile(draws, 0.5), std::exp(2.0), 0.3);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 30'000; ++i)
    stats.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(stats.mean(), 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 20'000; ++i)
    stats.add(static_cast<double>(rng.poisson(200.0)));
  EXPECT_NEAR(stats.mean(), 200.0, 2.0);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40'000; ++i)
    ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

/// Reference for quantile(): the same interpolation read off a sorted copy.
double quantile_sorted(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  std::vector<double> unsorted{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(quantile(unsorted, 0.5), 2.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

TEST(Quantile, SelectionMatchesSortedOnEveryQ) {
  // The nth_element implementation must agree with sorted indexing at
  // every quantile, including repeated calls on the same (partially
  // reordered) buffer.
  Rng rng(37);
  std::vector<double> scratch;
  for (int i = 0; i < 2000; ++i) scratch.push_back(rng.uniform(0.0, 100.0));
  std::vector<double> sorted = scratch;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(scratch, q), quantile_sorted(sorted, q))
        << "q=" << q;
    // Second call on the reordered buffer: same value.
    EXPECT_DOUBLE_EQ(quantile(scratch, q), quantile_sorted(sorted, q))
        << "repeat q=" << q;
  }
}

TEST(LogHistogram, CountSumAndMaxAreExact) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  std::int64_t sum = 0;
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{127},
        std::int64_t{128}, std::int64_t{999'999}, std::int64_t{1} << 40}) {
    h.add(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.max(), std::int64_t{1} << 40);
  // Values below 2^kSubBits have a bucket each: their quantiles are exact.
  LogHistogram small;
  for (int v = 0; v < 100; ++v) small.add(v);
  EXPECT_DOUBLE_EQ(small.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(small.quantile(0.5), 49.5);
  EXPECT_DOUBLE_EQ(small.quantile(1.0), 99.0);
  EXPECT_THROW(small.add(-1), AssertionError);
}

TEST(LogHistogram, QuantilesWithinStatedErrorOfExact) {
  Rng rng(91);
  for (const double top : {200.0, 5e4, 1e6, 3e9}) {
    SCOPED_TRACE(top);
    LogHistogram h;
    std::vector<double> exact;
    for (int i = 0; i < 5000; ++i) {
      // Log-uniform over [1, top]: every octave of the range gets samples.
      const auto v = static_cast<std::int64_t>(
          std::exp(rng.uniform(0.0, std::log(top))));
      h.add(v);
      exact.push_back(static_cast<double>(v));
    }
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double want = quantile(exact, q);
      EXPECT_LE(std::abs(h.quantile(q) - want),
                LogHistogram::kRelativeError * want)
          << "q=" << q << " exact " << want << " got " << h.quantile(q);
    }
  }
}

TEST(LogHistogram, EqualityIsMemberwise) {
  LogHistogram a;
  LogHistogram b;
  EXPECT_TRUE(a == b);
  a.add(1000);
  EXPECT_FALSE(a == b);
  b.add(1000);
  EXPECT_TRUE(a == b);
  // Same count, sum and max, different buckets.
  a.add(10);
  a.add(30);
  b.add(20);
  b.add(20);
  EXPECT_FALSE(a == b);
}

TEST(LogHistogram, StorageDoesNotGrowWithSamples) {
  // Trivially copyable: no heap storage, so the object is all there is.
  static_assert(std::is_trivially_copyable_v<LogHistogram>);
  LogHistogram few;
  LogHistogram many;
  for (std::int64_t i = 0; i < 10; ++i) few.add(i * 1000);
  for (std::int64_t i = 0; i < 1'000'000; ++i) many.add(i * 1000);
  EXPECT_EQ(sizeof(few), sizeof(many));
  EXPECT_LE(sizeof(LogHistogram), std::size_t{32} * 1024);
  EXPECT_EQ(many.count(), 1'000'000);
  EXPECT_EQ(many.max(), 999'999'000);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, SplitLineHandlesQuotes) {
  const auto fields = split_csv_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Csv, WriterRoundTrip) {
  const ScopedTempFile file("spider_csv_test.csv");
  {
    CsvWriter w(file.path());
    w.write_row({"h1", "h2"});
    w.write_row({"x,y", "2"});
  }
  std::ifstream in(file.path());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "h1,h2");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(split_csv_line(line)[0], "x,y");
}

TEST(Table, FormattingHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.7123), "71.2%");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"scheme", "ratio"});
  t.add_row({"Spider", "71.2%"});
  t.add_row({"Max-flow", "68.0%"});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("scheme"), std::string::npos);
  EXPECT_NE(rendered.find("Spider"), std::string::npos);
  EXPECT_NE(rendered.find("-----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

}  // namespace
}  // namespace spider
