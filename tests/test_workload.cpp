// Tests for workload synthesis: size laws, arrival process, sender skew,
// demand estimation, trace round-trips.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "test_support.hpp"
#include "util/stats.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace_io.hpp"
#include "workload/traffic.hpp"

namespace spider {
namespace {

TEST(FixedSize, AlwaysSame) {
  Rng rng(1);
  FixedSize d(xrp(5));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), xrp(5));
  EXPECT_DOUBLE_EQ(d.mean_xrp(), 5.0);
}

TEST(UniformSize, WithinBounds) {
  Rng rng(2);
  UniformSize d(xrp(1), xrp(9));
  RunningStats stats;
  for (int i = 0; i < 20'000; ++i) {
    const Amount a = d.sample(rng);
    EXPECT_GE(a, xrp(1));
    EXPECT_LE(a, xrp(9));
    stats.add(to_xrp(a));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
}

TEST(RippleSyntheticSizes, MatchesPaperStatistics) {
  // §6.1: mean ≈ 170 XRP, max 1780 XRP.
  Rng rng(3);
  const auto d = ripple_synthetic_sizes();
  RunningStats stats;
  Amount max_seen = 0;
  for (int i = 0; i < 100'000; ++i) {
    const Amount a = d->sample(rng);
    EXPECT_GE(a, 1);
    EXPECT_LE(a, xrp(1780));
    stats.add(to_xrp(a));
    max_seen = std::max(max_seen, a);
  }
  EXPECT_NEAR(stats.mean(), 170.0, 15.0);
  EXPECT_GT(max_seen, xrp(1000));  // the tail is actually exercised
  EXPECT_NEAR(d->mean_xrp(), stats.mean(), 10.0);  // analytic ≈ empirical
}

TEST(RippleSubgraphSizes, MatchesPaperStatistics) {
  // §6.1: Ripple-subgraph transactions, mean ≈ 345 XRP, max 2892 XRP.
  Rng rng(4);
  const auto d = ripple_subgraph_sizes();
  RunningStats stats;
  for (int i = 0; i < 60'000; ++i) {
    const Amount a = d->sample(rng);
    EXPECT_LE(a, xrp(2892));
    stats.add(to_xrp(a));
  }
  EXPECT_NEAR(stats.mean(), 345.0, 30.0);
}

TEST(SizeDistributions, HeavyTail) {
  Rng rng(5);
  const auto d = ripple_synthetic_sizes();
  std::vector<double> draws;
  for (int i = 0; i < 50'000; ++i) draws.push_back(to_xrp(d->sample(rng)));
  // Median far below mean: the law is right-skewed like real payments.
  EXPECT_LT(quantile(draws, 0.5), 130.0);
  EXPECT_GT(quantile(draws, 0.99), 600.0);
}

TEST(Traffic, CountAndOrdering) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.tx_per_second = 500;
  TrafficGenerator gen(32, config, *sizes);
  const auto trace = gen.generate(5000);
  ASSERT_EQ(trace.size(), 5000u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
}

TEST(Traffic, ArrivalRateMatchesConfig) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.tx_per_second = 1000;
  TrafficGenerator gen(32, config, *sizes);
  const auto trace = gen.generate(20'000);
  const double span = to_seconds(trace.back().arrival);
  EXPECT_NEAR(span, 20.0, 1.0);  // 20k tx at 1000 tx/s
}

TEST(Traffic, SenderNeverEqualsReceiver) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficGenerator gen(5, TrafficConfig{}, *sizes);
  for (const PaymentSpec& spec : gen.generate(3000))
    EXPECT_NE(spec.src, spec.dst);
}

TEST(Traffic, ExponentialSenderSkewIsSkewed) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.sender_skew = SenderSkew::kExponentialRank;
  TrafficGenerator gen(32, config, *sizes);
  std::vector<int> counts(32, 0);
  for (const PaymentSpec& spec : gen.generate(30'000))
    ++counts[static_cast<std::size_t>(spec.src)];
  // Low-rank nodes send much more than high-rank nodes.
  EXPECT_GT(counts[0], counts[31] * 5);
  // Weights decay geometrically.
  const auto& w = gen.sender_weights();
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
}

TEST(Traffic, UniformSenderSkewIsFlat) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.sender_skew = SenderSkew::kUniform;
  TrafficGenerator gen(16, config, *sizes);
  std::vector<int> counts(16, 0);
  for (const PaymentSpec& spec : gen.generate(32'000))
    ++counts[static_cast<std::size_t>(spec.src)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 350);
}

TEST(Traffic, ReceiversUniform) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficGenerator gen(16, TrafficConfig{}, *sizes);
  std::vector<int> counts(16, 0);
  for (const PaymentSpec& spec : gen.generate(32'000))
    ++counts[static_cast<std::size_t>(spec.dst)];
  for (int c : counts) EXPECT_GT(c, 1000);
}

TEST(Traffic, DeterministicBySeed) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.seed = 42;
  TrafficGenerator g1(10, config, *sizes);
  TrafficGenerator g2(10, config, *sizes);
  const auto t1 = g1.generate(500);
  const auto t2 = g2.generate(500);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].arrival, t2[i].arrival);
    EXPECT_EQ(t1[i].src, t2[i].src);
    EXPECT_EQ(t1[i].dst, t2[i].dst);
    EXPECT_EQ(t1[i].amount, t2[i].amount);
  }
}

TEST(Traffic, DeadlinePropagates) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.deadline = seconds(9.0);
  TrafficGenerator gen(8, config, *sizes);
  for (const PaymentSpec& spec : gen.generate(100))
    EXPECT_EQ(spec.deadline, seconds(9.0));
}

TEST(DemandMatrix, SkewCreatesDagComponent) {
  // Exponential senders + uniform receivers → demand is NOT a circulation;
  // its circulation fraction is strictly between 0 and 1. This is the
  // workload property behind the paper's Spider (LP) observation.
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig config;
  config.sender_skew = SenderSkew::kExponentialRank;
  TrafficGenerator gen(12, config, *sizes);
  const auto trace = gen.generate(20'000);
  const PaymentGraph pg = estimate_demand_matrix(12, trace);
  EXPECT_FALSE(pg.is_circulation(1e-3));
  EXPECT_GT(pg.total_demand(), 0.0);
}

TEST(TraceIo, RoundTrip) {
  const auto sizes = ripple_synthetic_sizes();
  TrafficGenerator gen(8, TrafficConfig{}, *sizes);
  const auto trace = gen.generate(300);
  const ScopedTempFile file("spider_trace_test.csv");
  write_trace_csv(file.path(), trace);
  const auto loaded = read_trace_csv(file.path());
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].arrival, trace[i].arrival);
    EXPECT_EQ(loaded[i].src, trace[i].src);
    EXPECT_EQ(loaded[i].dst, trace[i].dst);
    EXPECT_EQ(loaded[i].amount, trace[i].amount);
    EXPECT_EQ(loaded[i].deadline, trace[i].deadline);
  }
}

/// Writes `body` (after the canonical header) to a scratch file.
ScopedTempFile write_trace_body(const std::string& name,
                                const std::string& body, bool header = true) {
  ScopedTempFile file(name);
  std::ofstream out(file.path());
  if (header) out << "arrival_us,src,dst,amount_millis,deadline_us\n";
  out << body;
  return file;
}

TEST(TraceIo, RejectsMalformedRows) {
  const ScopedTempFile file = write_trace_body(
      "spider_trace_bad.csv", "1,2,3\n");  // too few fields
  EXPECT_THROW(read_trace_csv(file.path()), std::runtime_error);
  EXPECT_THROW(read_trace_csv("/nonexistent/path.csv"), std::runtime_error);
}

TEST(TraceIo, HeaderlessFirstRowIsDataNotSkipped) {
  // The old reader unconditionally skipped line 1, silently dropping the
  // first payment of headerless files.
  const ScopedTempFile file = write_trace_body(
      "spider_trace_headerless.csv", "5,0,1,250,0\n9,1,2,300,0\n",
      /*header=*/false);
  const auto trace = read_trace_csv(file.path());
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].arrival, 5);
  EXPECT_EQ(trace[0].src, 0);
  EXPECT_EQ(trace[0].dst, 1);
  EXPECT_EQ(trace[0].amount, 250);
}

TEST(TraceIo, GarbageFirstLineIsALoudError) {
  const ScopedTempFile file = write_trace_body(
      "spider_trace_garbage_head.csv",
      "timestamp;from;to;value\n3,0,1,100,0\n", /*header=*/false);
  try {
    (void)read_trace_csv(file.path());
    FAIL() << "expected rejection of an unrecognized first line";
  } catch (const std::runtime_error& e) {
    // The error names the expected schema instead of silently skipping.
    EXPECT_NE(std::string(e.what()).find("arrival_us"), std::string::npos);
  }
}

TEST(TraceIo, StrictFieldParsing) {
  // std::stoll used to accept "12abc" as 12 and let negative ids/amounts
  // through into NodeId casts; every one of these must now throw.
  const char* bad_rows[] = {
      "12abc,0,1,100,0\n",      // trailing garbage in arrival
      "1,0x2,1,100,0\n",        // non-decimal src
      "1,-2,1,100,0\n",         // negative src
      "1,0,-1,100,0\n",         // negative dst
      "1,0,1,-100,0\n",         // negative amount
      "1,0,1,0,0\n",            // zero amount
      "1,0,1,100,-5\n",         // negative deadline
      "1,0,1,100,\n",           // empty field
      "1,0,1, 100,0\n",         // inner whitespace
      "1,5000000000,1,100,0\n", // src overflows NodeId
      "99999999999999999999,0,1,100,0\n",  // arrival overflows int64
  };
  int n = 0;
  for (const char* row : bad_rows) {
    const ScopedTempFile file = write_trace_body(
        "spider_trace_strict_" + std::to_string(n++) + ".csv", row);
    EXPECT_THROW(read_trace_csv(file.path()), std::runtime_error) << row;
  }
}

TEST(TraceIo, RejectsOutOfOrderArrivals) {
  const ScopedTempFile file = write_trace_body(
      "spider_trace_unordered.csv", "9,0,1,100,0\n5,1,2,100,0\n");
  EXPECT_THROW(read_trace_csv(file.path()), std::runtime_error);
}

TEST(TraceIo, ToleratesCrlfLineEndings) {
  const ScopedTempFile file = write_trace_body("spider_trace_crlf.csv", "");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "arrival_us,src,dst,amount_millis,deadline_us\r\n"
        << "1,0,1,100,0\r\n"
        << "2,1,0,200,5000000\r\n";
  }
  const auto trace = read_trace_csv(file.path());
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].amount, 200);
  EXPECT_EQ(trace[1].deadline, 5000000);
}

TEST(TraceIo, Full64BitAmountsSurviveRoundTrip) {
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = std::numeric_limits<TimePoint>::max() - 1;
  trace[0].src = 0;
  trace[0].dst = 1;
  trace[0].amount = std::numeric_limits<Amount>::max();
  trace[0].deadline = 1;
  const ScopedTempFile file("spider_trace_64bit.csv");
  write_trace_csv(file.path(), trace);
  const auto loaded = read_trace_csv(file.path());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].arrival, trace[0].arrival);
  EXPECT_EQ(loaded[0].amount, std::numeric_limits<Amount>::max());
}

TEST(TraceIo, ValidateTraceNodesNamesTheOffender) {
  std::vector<PaymentSpec> trace(2);
  trace[0] = {0, 1, 2, 100, 0};
  trace[1] = {5, 1, 7, 100, 0};  // node 7 of a 4-node topology
  EXPECT_NO_THROW(validate_trace_nodes(trace.data(), 1, 4));
  try {
    validate_trace_nodes(trace.data(), trace.size(), 4);
    FAIL() << "expected out-of-topology rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payment 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("node 7"), std::string::npos);
  }
}

}  // namespace
}  // namespace spider
