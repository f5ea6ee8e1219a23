// The grid speedup guardrail, in its own executable so ctest can run it with
// RUN_SERIAL: it times a short grid on every core, and tests running beside
// it under `ctest -j` steal those cores and make the measurement meaningless.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>

#include "core/experiment.hpp"
#include "core/runner.hpp"

namespace spider {
namespace {

static_assert(std::is_trivially_copyable_v<SimMetrics>);

[[nodiscard]] bool same_bytes(const SimMetrics& a, const SimMetrics& b) {
  return std::memcmp(&a, &b, sizeof(SimMetrics)) == 0;
}

// The acceptance guardrail: a 4-scheme x 3-seed grid must finish >1.5x
// faster on the pool than serially when the host has >= 4 cores. Skipped on
// smaller hosts, where there is no parallelism to measure. At 6000 payments
// the serial grid takes ~0.2 s on a 4-core x86 KVM guest (speedups 2.4-3.8x
// there); at 1200 it took ~40 ms, short enough for scheduler noise to pull
// the ratio under the bound about one run in ten even with the host idle.
TEST(ExperimentRunner, GridSpeedupOnMulticoreHosts) {
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware < 4)
    GTEST_SKIP() << "host has " << hardware
                 << " core(s); speedup needs >= 4";

  ScenarioParams params;
  params.payments = 6000;
  params.tx_per_second = 300.0;
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(build_scenario("isp", params));
  const std::vector<Scheme> schemes = {
      Scheme::kShortestPath, Scheme::kSpiderWaterfilling,
      Scheme::kSpeedyMurmurs, Scheme::kSilentWhispers};
  const std::vector<std::uint64_t> seeds = {1, 2, 3};

  using Clock = std::chrono::steady_clock;
  ExperimentRunner serial(1);
  const auto serial_start = Clock::now();
  const auto serial_results = serial.run_grid(scenarios, schemes, seeds);
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  ExperimentRunner parallel(hardware);
  const auto parallel_start = Clock::now();
  const auto parallel_results = parallel.run_grid(scenarios, schemes, seeds);
  const double parallel_s =
      std::chrono::duration<double>(Clock::now() - parallel_start).count();

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i)
    ASSERT_TRUE(
        same_bytes(serial_results[i].metrics, parallel_results[i].metrics));

  const double speedup = serial_s / parallel_s;
  RecordProperty("serial_seconds", std::to_string(serial_s));
  RecordProperty("parallel_seconds", std::to_string(parallel_s));
  EXPECT_GT(speedup, 1.5) << "serial " << serial_s << " s vs parallel "
                          << parallel_s << " s on " << hardware << " cores";
}

}  // namespace
}  // namespace spider
