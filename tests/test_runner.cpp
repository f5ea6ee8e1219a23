// Tests for the parallel experiment engine: pool correctness and
// deterministic ordering-independent aggregation (parallel grid == serial
// loop, byte for byte). The speedup guardrail lives in
// test_runner_speedup.cpp, which ctest runs alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "core/experiment.hpp"
#include "core/runner.hpp"

namespace spider {
namespace {

// SimMetrics is all 8-byte scalar members (int64 / double / RunningStats of
// the same), so memcmp is a sound byte-identity check.
static_assert(std::is_trivially_copyable_v<SimMetrics>);

[[nodiscard]] bool same_bytes(const SimMetrics& a, const SimMetrics& b) {
  return std::memcmp(&a, &b, sizeof(SimMetrics)) == 0;
}

[[nodiscard]] ScenarioInstance small_isp() {
  ScenarioParams params;
  params.payments = 400;
  params.tx_per_second = 200.0;
  return build_scenario("isp", params);
}

TEST(ExperimentRunner, ForEachVisitsEveryIndexExactlyOnce) {
  ExperimentRunner runner(4);
  EXPECT_EQ(runner.thread_count(), 4u);
  std::vector<std::atomic<int>> visits(257);
  runner.for_each(visits.size(), [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < visits.size(); ++i)
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ExperimentRunner, ForEachZeroCountIsNoop) {
  ExperimentRunner runner(2);
  runner.for_each(0, [](std::size_t) { FAIL(); });
}

TEST(ExperimentRunner, ForEachIsReusable) {
  ExperimentRunner runner(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    runner.for_each(10, [&](std::size_t) { total++; });
  EXPECT_EQ(total.load(), 50);
}

// Regression: a worker preempted between batches must never apply a stale
// job to a later batch's index (each claim snapshots job + index under one
// lock). With the bug, some out[i] keeps an older round's tag — or the
// dangling previous lambda crashes outright.
TEST(ExperimentRunner, RapidBatchTurnoverKeepsJobsIsolated) {
  ExperimentRunner runner(4);
  for (int round = 0; round < 200; ++round) {
    std::vector<int> out(7, -1);
    runner.for_each(out.size(),
                    [&out, round](std::size_t i) { out[i] = round; });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], round) << "round " << round << " index " << i;
  }
}

TEST(ExperimentRunner, PropagatesWorkerExceptions) {
  ExperimentRunner runner(2);
  EXPECT_THROW(runner.for_each(8,
                               [](std::size_t i) {
                                 if (i == 3)
                                   throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // The pool must survive a failed batch.
  std::atomic<int> count{0};
  runner.for_each(4, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ExperimentRunner, GridMatchesSerialPathByteForByte) {
  const ScenarioInstance scenario = small_isp();
  const std::vector<Scheme> schemes = {
      Scheme::kShortestPath, Scheme::kSpiderWaterfilling,
      Scheme::kSpeedyMurmurs, Scheme::kSilentWhispers};
  const std::vector<std::uint64_t> seeds = {99, 7, 1234};

  ExperimentRunner parallel(4);
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(scenario);
  const std::vector<CellResult> grid =
      parallel.run_grid(scenarios, schemes, seeds);
  ASSERT_EQ(grid.size(), schemes.size() * seeds.size());

  // The serial reference: the plain nested loop the runner replaced.
  const SpiderNetwork net(scenario.graph, scenario.config);
  std::size_t i = 0;
  for (Scheme scheme : schemes) {
    for (std::uint64_t seed : seeds) {
      const SimMetrics serial = net.run(scheme, scenario.trace, seed);
      EXPECT_EQ(grid[i].cell.scheme, scheme);
      EXPECT_EQ(grid[i].cell.seed, seed);
      EXPECT_EQ(grid[i].scenario, "isp");
      EXPECT_TRUE(same_bytes(serial, grid[i].metrics))
          << "cell " << i << " (" << scheme_name(scheme) << ", seed " << seed
          << ") diverged from the serial run";
      ++i;
    }
  }
}

TEST(ExperimentRunner, GridIsIdenticalAcrossThreadCounts) {
  const ScenarioInstance scenario = small_isp();
  const std::vector<Scheme> schemes = {Scheme::kShortestPath,
                                       Scheme::kSpiderWaterfilling};
  const std::vector<std::uint64_t> seeds = {1, 2};
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(scenario);

  ExperimentRunner one(1);
  ExperimentRunner many(8);
  const auto a = one.run_grid(scenarios, schemes, seeds);
  const auto b = many.run_grid(scenarios, schemes, seeds);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bytes(a[i].metrics, b[i].metrics)) << "cell " << i;
}

TEST(ExperimentRunner, EmptySeedListUsesScenarioSeed) {
  const ScenarioInstance scenario = small_isp();
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(scenario);
  ExperimentRunner runner(2);
  const auto results =
      runner.run_grid(scenarios, {Scheme::kShortestPath});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].cell.seed, scenario.config.sim.seed);
}

TEST(RunSchemes, StillMatchesDirectRuns) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  const std::vector<Scheme> schemes = {Scheme::kShortestPath,
                                       Scheme::kSpiderWaterfilling,
                                       Scheme::kSpeedyMurmurs};
  const auto results = run_schemes(net, scenario.trace, schemes);
  ASSERT_EQ(results.size(), schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_EQ(results[i].scheme, schemes[i]);
    EXPECT_TRUE(
        same_bytes(results[i].metrics, net.run(schemes[i], scenario.trace)));
  }
}

}  // namespace
}  // namespace spider
