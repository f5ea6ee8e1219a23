// Golden objectives of the routing LPs the simulator solves. The values were
// recorded from the dense-tableau solver before the revised simplex replaced
// it; any exact solver must reproduce them (an LP's optimal objective is
// unique even when its optimal vertex is not).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "fluid/routing_lp.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "util/random.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic.hpp"

namespace spider {
namespace {

/// Spider (LP) on ISP exactly as `perfbench`'s isp-lp workload builds it:
/// 100k payments at 400 tx/s, traffic seed 1, the 300 largest pairs, Δ 0.5,
/// 4 edge-disjoint paths.
RoutingLp isp_lp(const Graph& graph) {
  TrafficConfig traffic;
  traffic.tx_per_second = 400.0;
  traffic.seed = 1;
  const std::unique_ptr<SizeDistribution> sizes = ripple_synthetic_sizes();
  TrafficGenerator generator(graph.num_nodes(), traffic, *sizes);
  const PaymentGraph demands = largest_demands(
      estimate_demand_matrix(graph.num_nodes(), generator.generate(100'000)),
      300);
  return RoutingLp::with_disjoint_paths(graph, demands, 0.5, 4);
}

/// Spider (LP) on the griefing scenario at 6000 payments: a 60-node
/// ripple-like graph and the 900 largest pairs of benign plus flood traffic.
ScenarioInstance griefing_instance() {
  ScenarioParams params;
  params.payments = 6000;
  return build_scenario("griefing", params);
}

RoutingLp griefing_lp(const ScenarioInstance& instance) {
  const PaymentGraph demands = largest_demands(
      estimate_demand_matrix(instance.graph.num_nodes(), instance.trace),
      instance.config.lp_max_pairs);
  return RoutingLp::with_disjoint_paths(
      instance.graph, demands, to_seconds(instance.config.sim.delta),
      instance.config.num_paths);
}

/// Relative 1e-6 agreement with a recorded objective.
void expect_golden(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, 1e-6 * std::max(1.0, std::abs(golden))) << what;
}

TEST(LpGolden, IspLpMatchesRecordedOptimum) {
  const Graph graph = isp_topology(xrp(3000), 1);
  const RoutingLp lp = isp_lp(graph);
  ASSERT_EQ(lp.pairs().size(), 300u);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  expect_golden(s.objective, 11533.096316601532, "isp.balanced.objective");
  expect_golden(s.throughput, 11533.096316601532, "isp.balanced.throughput");
}

TEST(LpGolden, GriefingLpMatchesRecordedOptimum) {
  const ScenarioInstance instance = griefing_instance();
  const RoutingLp lp = griefing_lp(instance);
  ASSERT_EQ(lp.pairs().size(), 900u);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  expect_golden(s.objective, 43213.858375130083, "griefing.balanced.objective");
  expect_golden(s.throughput, 43213.858375130083,
                "griefing.balanced.throughput");
}

/// The fluid tests' random instance (`RoutingLp.Prop1HoldsOnRandomInstances`
/// at seed 41): an 8-node Erdős–Rényi graph, every simple path up to 7 hops.
RoutingLp random_fluid_lp(Graph& graph) {
  Rng rng(41);
  graph = erdos_renyi_topology(8, 0.4, xrp(10'000'000), rng);
  PaymentGraph demands(8);
  for (int i = 0; i < 10; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 7));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, 7));
    if (s == t) continue;
    demands.add_demand(s, t, rng.uniform(0.5, 2.0));
  }
  return RoutingLp::with_all_paths(graph, demands, 1.0, 7);
}

TEST(LpGolden, MaxMinAndBoundedRebalancingMatchRecordedOptima) {
  Graph graph;
  const RoutingLp lp = random_fluid_lp(graph);
  const FluidSolution bounded = lp.solve_bounded_rebalancing(1.5);
  ASSERT_EQ(bounded.status, LpStatus::kOptimal);
  expect_golden(bounded.objective, 6.3322899420688126,
                "random.bounded.objective");
  expect_golden(bounded.throughput, 6.3322899420688126,
                "random.bounded.throughput");
  EXPECT_LE(bounded.rebalancing_rate, 1.5 + 1e-6);

  // The Fig. 4 instance, where every pair gets a positive fair share.
  const Graph fig4 = motivating_example_topology(xrp(1'000'000));
  const RoutingLp fig4_lp =
      RoutingLp::with_all_paths(fig4, motivating_demands(), 1.0, 4);
  const FluidSolution fair = fig4_lp.solve_max_min_balanced();
  ASSERT_EQ(fair.status, LpStatus::kOptimal);
  expect_golden(fair.objective, 407.66666666666669, "fig4.max_min.objective");
  expect_golden(fair.throughput, 7.6666666666666661, "fig4.max_min.throughput");
  expect_golden(fair.min_fraction, 0.33333333333333331,
                "fig4.max_min.min_fraction");

  const Graph isp = isp_topology(xrp(3000), 1);
  const FluidSolution isp_fair = isp_lp(isp).solve_max_min_balanced();
  ASSERT_EQ(isp_fair.status, LpStatus::kOptimal);
  expect_golden(isp_fair.objective, 11533.096316601543,
                "isp.max_min.objective");
  expect_golden(isp_fair.throughput, 11533.096316601543,
                "isp.max_min.throughput");
  expect_golden(isp_fair.min_fraction, 0.0, "isp.max_min.min_fraction");
}

TEST(LpGolden, DualsCertifyEveryPinnedOptimum) {
  const Graph isp = isp_topology(xrp(3000), 1);
  const RoutingLp isp_routing = isp_lp(isp);
  const ScenarioInstance instance = griefing_instance();
  Graph random_graph;
  const RoutingLp random_routing = random_fluid_lp(random_graph);
  const Graph fig4 = motivating_example_topology(xrp(1'000'000));
  const RoutingLp fig4_routing =
      RoutingLp::with_all_paths(fig4, motivating_demands(), 1.0, 4);

  const std::vector<std::pair<const char*, LpModel>> models{
      {"isp.balanced", isp_routing.balanced_model()},
      {"griefing.balanced", griefing_lp(instance).balanced_model()},
      {"random.bounded", random_routing.bounded_rebalancing_model(1.5)},
      {"fig4.max_min", fig4_routing.max_min_model()},
      {"isp.max_min", isp_routing.max_min_model()},
  };
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    expect_strong_duality(model, solve_lp(model));
  }

  // Bland's rule from the first pivot, with the factor rebuilt after every
  // pivot, reaches the same ISP optimum.
  SimplexOptions stressed;
  stressed.bland_after = 0;
  stressed.refactor_every = 1;
  const LpModel& isp_model = models.front().second;
  const LpSolution s = solve_lp(isp_model, stressed);
  expect_strong_duality(isp_model, s);
  expect_golden(s.objective, 11533.096316601532, "isp.balanced.objective");
}

}  // namespace
}  // namespace spider
