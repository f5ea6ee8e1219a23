// Shared helpers for the figure-reproduction harnesses (see DESIGN.md
// experiment index). Each harness runs argument-free at laptop scale;
// environment variables scale runs up to paper scale (DESIGN.md).
//
// All topology/trace/config setup flows through the scenario registry
// (core/scenario.hpp): a bench names a scenario, the registry materializes
// it, and the SPIDER_* environment overrides apply uniformly. No bench
// hand-rolls a topology.
#pragma once

#include <iostream>
#include <string>

#include "core/experiment.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "topology/topology.hpp"
#include "workload/trace_io.hpp"

namespace spider::bench {

/// bench_throughput's JSON schema version. Bump it with any change to a
/// key's presence, order or meaning; a test requires the checked-in
/// BENCH_throughput.json to carry it, so a bump forces a regeneration.
inline constexpr int kThroughputSchemaVersion = 8;

inline void banner(const std::string& experiment_id,
                   const std::string& paper_artifact,
                   const std::string& expectation) {
  std::cout << "==============================================================="
               "=\n"
            << experiment_id << " — " << paper_artifact << '\n'
            << "paper expectation: " << expectation << '\n'
            << "==============================================================="
               "=\n";
}

/// Materializes a registered scenario with the SPIDER_* env overrides
/// applied. `traffic_seed` != 0 is the bench's default workload stream
/// (benches use distinct streams so their traces are independent draws);
/// an explicit SPIDER_TRAFFIC_SEED in the environment wins over it.
inline ScenarioInstance scenario(const std::string& name,
                                 std::uint64_t traffic_seed = 0) {
  ScenarioParams params = ScenarioParams::from_env();
  if (params.traffic_seed == 0) params.traffic_seed = traffic_seed;
  return build_scenario(name, params);
}

/// The §6.1 ISP workload at bench scale — the registry's `isp` scenario.
/// Defaults keep the network loaded the way the paper's 200 s saturated
/// runs are; SPIDER_TXNS / SPIDER_TX_RATE / SPIDER_CAPACITY_XRP scale to
/// paper size (200000 / 1000 / 30000).
inline ScenarioInstance isp_setup(std::uint64_t traffic_seed = 1) {
  return scenario("isp", traffic_seed);
}

/// One point of the transport-parameter ablation: the §5.2 marking
/// threshold × the initial per-path AIMD window. Shared between
/// bench_queueing_ablation (stdout/CSV table) and bench_throughput (the
/// same rows join BENCH_throughput.json, schema v5), so the two surfaces
/// can never sweep different grids.
struct TransportSweepPoint {
  Duration mark_threshold;
  Amount window;
};

/// The default 3×3 sweep: threshold {10, 40, 160} ms (paper default 40)
/// × initial window {50, 200, 800} XRP (paper default 200).
inline std::vector<TransportSweepPoint> transport_sweep_grid() {
  std::vector<TransportSweepPoint> grid;
  for (const int threshold_ms : {10, 40, 160})
    for (const int window_xrp : {50, 200, 800})
      grid.push_back({milliseconds(threshold_ms), xrp(window_xrp)});
  return grid;
}

/// "mt40ms-w200": the sweep point's tag, used as a scenario-name suffix in
/// bench tables and JSON rows ("isp~mt40ms-w200").
inline std::string transport_point_tag(const TransportSweepPoint& point) {
  return "mt" + std::to_string(point.mark_threshold / milliseconds(1)) +
         "ms-w" + std::to_string(point.window / xrp(1));
}

/// A scenario config with the transport layer pinned to `point` (enabled,
/// router-queue mode — the spider-dctcp defaults made explicit).
inline SpiderConfig transport_point_config(const ScenarioInstance& scenario,
                                           const TransportSweepPoint& point) {
  SpiderConfig config = scenario.config;
  config.sim.transport.enabled = true;
  config.sim.queueing = QueueingMode::kRouterQueue;
  config.sim.transport.mark_threshold = point.mark_threshold;
  config.sim.transport.initial_window = point.window;
  config.sim.transport.min_window =
      std::min(config.sim.transport.min_window, point.window);
  return config;
}

}  // namespace spider::bench
