// Cross-scheme property suite: EVERY routing scheme, on several topologies,
// must preserve the financial invariants end-to-end — exact conservation of
// channel funds, no over-delivery, clean inflight drain, atomic
// all-or-nothing semantics, and per-seed determinism.
#include <gtest/gtest.h>

#include <tuple>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

enum class TopoKind { kIsp, kRippleLike, kGrid };

std::string topo_name(TopoKind kind) {
  switch (kind) {
    case TopoKind::kIsp: return "Isp";
    case TopoKind::kRippleLike: return "RippleLike";
    case TopoKind::kGrid: return "Grid";
  }
  return "?";
}

Graph make_topology(TopoKind kind, Amount capacity) {
  switch (kind) {
    case TopoKind::kIsp: return isp_topology(capacity, 1);
    case TopoKind::kRippleLike: return ripple_like_topology(48, capacity, 1);
    case TopoKind::kGrid: return grid_topology(5, 5, capacity);
  }
  throw std::logic_error("bad kind");
}

using Param = std::tuple<Scheme, TopoKind>;

class SchemeTopologyProperty : public testing::TestWithParam<Param> {};

TEST_P(SchemeTopologyProperty, InvariantsHoldAcrossFullRun) {
  const auto [scheme, topo_kind] = GetParam();
  const Graph graph = make_topology(topo_kind, xrp(2000));

  SpiderConfig config;
  config.sim.seed = 21;
  const std::unique_ptr<Router> router = make_router(scheme, config);

  // Workload: the paper's synthesis rule scaled down.
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig traffic;
  traffic.tx_per_second = 100;
  traffic.seed = 33;
  TrafficGenerator generator(graph.num_nodes(), traffic, *sizes);
  const auto trace = generator.generate(400);

  Network network(graph);
  const Amount before = network.total_funds();
  const PaymentGraph demands =
      estimate_demand_matrix(graph.num_nodes(), trace);
  RouterInitContext context;
  context.demand_hint = &demands;
  context.delta_seconds = to_seconds(config.sim.delta);
  router->init(network, context);
  Simulator sim(network, *router, config.sim);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics metrics = sim.run(trace);

  // Hard financial invariants.
  EXPECT_EQ(network.total_funds(), before);
  network.check_invariants();
  EXPECT_EQ(metrics.attempted_count, 400);
  EXPECT_LE(metrics.delivered_volume, metrics.attempted_volume);
  EXPECT_LE(metrics.completed_volume, metrics.delivered_volume);

  Amount delivered_sum = 0;
  retired.expect_every_id_once(400);
  for (const Payment& p : retired.records()) {
    EXPECT_LE(p.delivered, p.total);
    EXPECT_EQ(p.inflight, 0) << "payment left funds inflight";
    EXPECT_NE(p.status, PaymentStatus::kPending) << "payment unresolved";
    delivered_sum += p.delivered;
    if (router->is_atomic()) {
      // Atomic schemes may not partially deliver.
      EXPECT_TRUE(p.delivered == 0 || p.delivered == p.total)
          << "atomic payment partially delivered";
      EXPECT_NE(p.status, PaymentStatus::kExpired);
    }
  }
  EXPECT_EQ(delivered_sum, metrics.delivered_volume);
  EXPECT_EQ(metrics.completed_count +
                metrics.expired_count + metrics.rejected_count,
            metrics.attempted_count);

  // Ratios are well-formed.
  EXPECT_GE(metrics.success_ratio(), 0.0);
  EXPECT_LE(metrics.success_ratio(), 1.0);
  EXPECT_GE(metrics.success_volume(), 0.0);
  EXPECT_LE(metrics.success_volume(), 1.0);
}

TEST_P(SchemeTopologyProperty, DeterministicForFixedSeed) {
  const auto [scheme, topo_kind] = GetParam();
  const Graph graph = make_topology(topo_kind, xrp(1500));
  SpiderConfig config;
  config.sim.seed = 5;
  SpiderNetwork net(graph, config);
  TrafficConfig traffic;
  traffic.tx_per_second = 120;
  traffic.seed = 11;
  const auto trace = net.synthesize_workload(250, traffic);

  const SimMetrics a = net.run(scheme, trace);
  const SimMetrics b = net.run(scheme, trace);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.rejected_count, b.rejected_count);
}

std::string param_name(const testing::TestParamInfo<Param>& info) {
  std::string scheme = scheme_name(std::get<0>(info.param));
  std::string clean;
  for (char c : scheme)
    if (std::isalnum(static_cast<unsigned char>(c))) clean += c;
  return clean + "_" + topo_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTopologyProperty,
    testing::Combine(testing::ValuesIn(all_schemes()),
                     testing::Values(TopoKind::kIsp, TopoKind::kRippleLike,
                                     TopoKind::kGrid)),
    param_name);

/// Capacity monotonicity: more escrow can only help (statistically; checked
/// with a generous margin on the non-atomic Spider schemes where the effect
/// is monotone in the paper's Fig. 7).
class CapacityMonotonicity : public testing::TestWithParam<Scheme> {};

TEST_P(CapacityMonotonicity, SuccessVolumeGrowsWithCapacity) {
  const Scheme scheme = GetParam();
  SpiderConfig config;
  TrafficConfig traffic;
  traffic.tx_per_second = 150;
  traffic.seed = 3;

  double low_volume = 0;
  double high_volume = 0;
  {
    SpiderNetwork net(isp_topology(xrp(500), 1), config);
    const auto trace = net.synthesize_workload(600, traffic);
    low_volume = net.run(scheme, trace).success_volume();
  }
  {
    SpiderNetwork net(isp_topology(xrp(20000), 1), config);
    const auto trace = net.synthesize_workload(600, traffic);
    high_volume = net.run(scheme, trace).success_volume();
  }
  EXPECT_GE(high_volume, low_volume - 0.02);
  EXPECT_GT(high_volume, 0.2);
}

INSTANTIATE_TEST_SUITE_P(NonAtomicSchemes, CapacityMonotonicity,
                         testing::Values(Scheme::kSpiderWaterfilling,
                                         Scheme::kShortestPath),
                         [](const testing::TestParamInfo<Scheme>& param_info) {
                           std::string clean;
                           for (char c : scheme_name(param_info.param))
                             if (std::isalnum(
                                     static_cast<unsigned char>(c)))
                               clean += c;
                           return clean;
                         });

}  // namespace
}  // namespace spider
