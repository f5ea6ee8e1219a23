// Tests for the fluid layer: payment graphs, circulation decomposition
// (§5.2.2, Prop. 1), the routing LPs (eqs. 1–18), and the paper's motivating
// example (Figs. 4 & 5).
//
// The Fig. 4/5 instance is reconstructed from the paper's stated facts
// (demands named in §5.1, total demand 12, circulation ν(C*) = 8 whose edge
// weights match Fig. 5b, DAG remainder of total 4). See DESIGN.md.
#include <gtest/gtest.h>

#include "fluid/circulation.hpp"
#include "fluid/routing_lp.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic.hpp"

namespace spider {
namespace {

TEST(PaymentGraph, AccumulatesAndLists) {
  PaymentGraph pg(4);
  pg.add_demand(0, 1, 1.5);
  pg.add_demand(0, 1, 0.5);
  pg.add_demand(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(pg.demand(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(pg.demand(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(pg.total_demand(), 3.0);
  EXPECT_EQ(pg.edges().size(), 2u);
}

TEST(PaymentGraph, RejectsBadDemands) {
  PaymentGraph pg(3);
  EXPECT_THROW(pg.add_demand(0, 0, 1.0), AssertionError);
  EXPECT_THROW(pg.add_demand(0, 5, 1.0), AssertionError);
  EXPECT_THROW(pg.add_demand(0, 1, -1.0), AssertionError);
}

TEST(PaymentGraph, InOutRates) {
  const PaymentGraph pg = motivating_demands();
  const auto out = pg.out_rates();
  const auto in = pg.in_rates();
  EXPECT_DOUBLE_EQ(out[0], 2.0);  // 1->2 and 1->5
  EXPECT_DOUBLE_EQ(in[0], 4.0);   // from 4 and 5
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  EXPECT_DOUBLE_EQ(in[4], 1.0);
}

TEST(PaymentGraph, CirculationAndAcyclicPredicates) {
  PaymentGraph cycle(3);
  cycle.add_demand(0, 1, 2);
  cycle.add_demand(1, 2, 2);
  cycle.add_demand(2, 0, 2);
  EXPECT_TRUE(cycle.is_circulation());
  EXPECT_FALSE(cycle.is_acyclic());

  PaymentGraph dag(3);
  dag.add_demand(0, 1, 1);
  dag.add_demand(0, 2, 1);
  dag.add_demand(1, 2, 1);
  EXPECT_FALSE(dag.is_circulation());
  EXPECT_TRUE(dag.is_acyclic());

  EXPECT_TRUE(PaymentGraph(3).is_circulation());
  EXPECT_TRUE(PaymentGraph(3).is_acyclic());
}

TEST(Circulation, PureCycleIsFullyCirculation) {
  PaymentGraph pg(4);
  pg.add_demand(0, 1, 3);
  pg.add_demand(1, 2, 3);
  pg.add_demand(2, 3, 3);
  pg.add_demand(3, 0, 3);
  EXPECT_NEAR(max_circulation_value(pg), 12.0, 1e-6);
  EXPECT_NEAR(circulation_fraction(pg), 1.0, 1e-6);
}

TEST(Circulation, PureDagHasNone) {
  PaymentGraph pg(3);
  pg.add_demand(0, 1, 5);
  pg.add_demand(1, 2, 5);
  EXPECT_NEAR(max_circulation_value(pg), 0.0, 1e-6);
  EXPECT_NEAR(circulation_fraction(pg), 0.0, 1e-6);
}

TEST(Circulation, PartialCycleLimitedByBottleneck) {
  PaymentGraph pg(2);
  pg.add_demand(0, 1, 5);
  pg.add_demand(1, 0, 2);
  EXPECT_NEAR(max_circulation_value(pg), 4.0, 1e-6);  // 2 each way
}

TEST(Circulation, Fig5DecompositionValues) {
  const PaymentGraph pg = motivating_demands();
  EXPECT_DOUBLE_EQ(pg.total_demand(), 12.0);
  EXPECT_NEAR(max_circulation_value(pg), 8.0, 1e-6);  // ν(C*) of Fig. 5b
  EXPECT_NEAR(circulation_fraction(pg), 8.0 / 12.0, 1e-6);
}

TEST(Circulation, Fig5DecompositionStructure) {
  const CirculationDecomposition d =
      decompose_payment_graph(motivating_demands());
  EXPECT_NEAR(d.value, 8.0, 1e-6);
  EXPECT_TRUE(d.circulation.is_circulation(1e-6));
  EXPECT_NEAR(d.circulation.total_demand(), 8.0, 1e-6);
  // The remainder is a DAG of total weight 4 (Fig. 5c).
  EXPECT_TRUE(d.dag.is_acyclic(1e-6));
  EXPECT_NEAR(d.dag.total_demand(), 4.0, 1e-6);
}

TEST(Circulation, DecompositionPartsSumToOriginal) {
  const PaymentGraph pg = motivating_demands();
  const CirculationDecomposition d = decompose_payment_graph(pg);
  for (const DemandEdge& e : pg.edges())
    EXPECT_NEAR(d.circulation.demand(e.src, e.dst) + d.dag.demand(e.src,
                                                                  e.dst),
                e.rate, 1e-6);
}

TEST(Circulation, GreedyIsLowerBound) {
  const PaymentGraph pg = motivating_demands();
  const double greedy = greedy_circulation_value(pg);
  EXPECT_GT(greedy, 0.0);
  EXPECT_LE(greedy, max_circulation_value(pg) + 1e-6);
}

TEST(Circulation, GreedyExactOnSingleCycle) {
  PaymentGraph pg(3);
  pg.add_demand(0, 1, 2);
  pg.add_demand(1, 2, 2);
  pg.add_demand(2, 0, 2);
  EXPECT_NEAR(greedy_circulation_value(pg), 6.0, 1e-9);
}

/// Property: over random payment graphs, decomposition invariants hold and
/// greedy never beats the LP.
class CirculationProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CirculationProperty, RandomGraphInvariants) {
  Rng rng(GetParam());
  PaymentGraph pg(8);
  for (int i = 0; i < 14; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 7));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, 7));
    if (s == t) continue;
    pg.add_demand(s, t, rng.uniform(0.5, 3.0));
  }
  const CirculationDecomposition d = decompose_payment_graph(pg);
  EXPECT_TRUE(d.circulation.is_circulation(1e-5));
  EXPECT_TRUE(d.dag.is_acyclic(1e-5));
  EXPECT_NEAR(d.circulation.total_demand() + d.dag.total_demand(),
              pg.total_demand(), 1e-5);
  EXPECT_LE(greedy_circulation_value(pg), d.value + 1e-5);
  EXPECT_LE(d.value, pg.total_demand() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CirculationProperty,
                         testing::Values(3, 6, 9, 12, 15, 18, 21, 24));

// ---- Routing LPs ----

TEST(SimplePaths, EnumerationOnMotivatingTopology) {
  const Graph g = motivating_example_topology(xrp(1000));
  const auto paths = enumerate_simple_paths(g, 0, 3, 4);
  // 0->3 simple paths: 0-1-3, 0-1-2-3, 0-4-3. Plus none longer than 4 hops.
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].length(), 2u);  // shortest first
  for (const Path& p : paths) EXPECT_TRUE(is_valid_trail(g, p));
}

TEST(SimplePaths, HopLimitRespected) {
  const Graph g = motivating_example_topology(xrp(1000));
  for (const Path& p : enumerate_simple_paths(g, 0, 3, 2))
    EXPECT_LE(p.length(), 2u);
}

TEST(RoutingLp, Fig4OptimalBalancedEqualsCirculation) {
  // Prop. 1: with ample capacity, balanced routing over all paths achieves
  // exactly ν(C*) = 8 (and no more).
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const RoutingLp lp =
      RoutingLp::with_all_paths(g, motivating_demands(), /*delta=*/1.0,
                                /*max_hops=*/4);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.throughput, 8.0, 1e-5);
}

TEST(RoutingLp, Fig4ShortestPathBalancedIsWorse) {
  // Restricting each pair to its single shortest path loses throughput
  // (paper's instance: 5 vs 8; our reconstruction: 7 vs 8 — the gap is the
  // reproduced phenomenon).
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const RoutingLp lp = RoutingLp::with_disjoint_paths(
      g, motivating_demands(), /*delta=*/1.0, /*k=*/1);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.throughput, 7.0, 1e-5);
  EXPECT_LT(s.throughput, 8.0 - 1e-6);
}

TEST(RoutingLp, ThroughputBoundedByDemandAndCirculation) {
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const PaymentGraph demands = motivating_demands();
  const RoutingLp lp = RoutingLp::with_all_paths(g, demands, 1.0, 4);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LE(s.throughput, demands.total_demand() + 1e-9);
  EXPECT_LE(s.throughput, max_circulation_value(demands) + 1e-5);
}

TEST(RoutingLp, CapacityConstraintBinds) {
  // Two nodes, one channel of capacity c, pure circulation demand 10+10;
  // with delta=1 throughput is capped at c/delta.
  Graph g(2);
  g.add_edge(0, 1, xrp(4));
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 10.0);
  demands.add_demand(1, 0, 10.0);
  const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 1.0, 1);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.throughput, 4.0, 1e-6);  // c/Δ = 4 XRP/s total, balanced 2+2
}

TEST(RoutingLp, RebalancingUnlocksDagDemand) {
  // Pure DAG demand 0->1 of 10: balanced routing moves nothing, but with
  // cheap rebalancing (γ≈0) the full demand flows.
  Graph g(2);
  g.add_edge(0, 1, xrp(1'000'000));
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 10.0);
  const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 1.0, 1);

  const FluidSolution balanced = lp.solve_balanced();
  ASSERT_EQ(balanced.status, LpStatus::kOptimal);
  EXPECT_NEAR(balanced.throughput, 0.0, 1e-6);

  const FluidSolution cheap = lp.solve_rebalancing(/*gamma=*/0.01);
  ASSERT_EQ(cheap.status, LpStatus::kOptimal);
  EXPECT_NEAR(cheap.throughput, 10.0, 1e-5);
  EXPECT_NEAR(cheap.rebalancing_rate, 10.0, 1e-5);

  // Expensive rebalancing (γ > 1 unit of throughput per unit of b) is not
  // worth it: back to the balanced optimum.
  const FluidSolution expensive = lp.solve_rebalancing(/*gamma=*/5.0);
  ASSERT_EQ(expensive.status, LpStatus::kOptimal);
  EXPECT_NEAR(expensive.throughput, 0.0, 1e-5);
}

TEST(RoutingLp, BoundedRebalancingIsMonotoneAndConcave) {
  // t(B) on the motivating instance: non-decreasing, concave (§5.2.3),
  // t(0) = ν(C*), t(∞-ish) = total demand.
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const RoutingLp lp =
      RoutingLp::with_all_paths(g, motivating_demands(), 1.0, 4);
  std::vector<double> bounds{0.0, 1.0, 2.0, 3.0, 4.0, 8.0};
  std::vector<double> t;
  for (double b : bounds) {
    const FluidSolution s = lp.solve_bounded_rebalancing(b);
    ASSERT_EQ(s.status, LpStatus::kOptimal);
    EXPECT_LE(s.rebalancing_rate, b + 1e-6);
    t.push_back(s.throughput);
  }
  EXPECT_NEAR(t.front(), 8.0, 1e-5);   // = ν(C*)
  EXPECT_NEAR(t.back(), 12.0, 1e-5);   // full demand once B is ample
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_GE(t[i], t[i - 1] - 1e-6);  // non-decreasing
  // Concavity on the equally spaced prefix {0,1,2,3,4}: increments shrink.
  for (std::size_t i = 2; i + 1 < t.size(); ++i)
    EXPECT_LE(t[i] - t[i - 1], t[i - 1] - t[i - 2] + 1e-6);
}

TEST(RoutingLp, Prop1HoldsOnRandomInstances) {
  // Balanced throughput == ν(C*) when capacity is ample, over random
  // topologies and demands (Prop. 1 exactness).
  for (std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    Rng rng(seed);
    const Graph g = erdos_renyi_topology(8, 0.4, xrp(10'000'000), rng);
    PaymentGraph demands(8);
    for (int i = 0; i < 10; ++i) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, 7));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, 7));
      if (s == t) continue;
      demands.add_demand(s, t, rng.uniform(0.5, 2.0));
    }
    const double nu = max_circulation_value(demands);
    const RoutingLp lp = RoutingLp::with_all_paths(g, demands, 1.0, 7);
    const FluidSolution s = lp.solve_balanced();
    ASSERT_EQ(s.status, LpStatus::kOptimal);
    EXPECT_NEAR(s.throughput, nu, 1e-4) << "seed " << seed;
  }
}

TEST(RoutingLp, PathRatesRespectDemands) {
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const PaymentGraph demands = motivating_demands();
  const RoutingLp lp = RoutingLp::with_all_paths(g, demands, 1.0, 4);
  const FluidSolution s = lp.solve_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  ASSERT_EQ(s.path_rates.size(), lp.pairs().size());
  for (std::size_t pi = 0; pi < lp.pairs().size(); ++pi) {
    double pair_total = 0;
    for (double r : s.path_rates[pi]) {
      EXPECT_GE(r, -1e-9);
      pair_total += r;
    }
    EXPECT_LE(pair_total, lp.pairs()[pi].demand + 1e-6);
  }
}

TEST(MaxMinRouting, TwoNodeAsymmetricDemand) {
  // d(0,1) = 10, d(1,0) = 2, ample capacity. Balance forces equal flow both
  // ways, so fractions are x/10 and x/2 with x <= 2: t* = 2/10 = 0.2, and
  // the throughput-maximizing stage still routes 2 + 2 = 4.
  Graph g(2);
  g.add_edge(0, 1, xrp(1'000'000));
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 10.0);
  demands.add_demand(1, 0, 2.0);
  const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 1.0, 1);
  const FluidSolution s = lp.solve_max_min_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.min_fraction, 0.2, 1e-6);
  EXPECT_NEAR(s.throughput, 4.0, 1e-5);
}

TEST(MaxMinRouting, PureDagGetsZeroFairShare) {
  Graph g(2);
  g.add_edge(0, 1, xrp(1'000'000));
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 5.0);  // nothing can come back: t* = 0
  const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 1.0, 1);
  const FluidSolution s = lp.solve_max_min_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.min_fraction, 0.0, 1e-6);
  EXPECT_NEAR(s.throughput, 0.0, 1e-5);
}

TEST(MaxMinRouting, EveryPairServedOnMotivatingInstance) {
  // The throughput LP zeroes out pair (3,4)-in-paper-ids entirely
  // (test via the decomposition: its circulation share is 0). Max-min must
  // give EVERY pair at least fraction t* > 0 while staying balanced.
  const Graph g = motivating_example_topology(xrp(1'000'000));
  const PaymentGraph demands = motivating_demands();
  const RoutingLp lp = RoutingLp::with_all_paths(g, demands, 1.0, 4);
  const FluidSolution s = lp.solve_max_min_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_GT(s.min_fraction, 0.05);
  EXPECT_LE(s.min_fraction, 1.0 + 1e-9);
  // Balanced routing stays bounded by the circulation value (Prop. 1).
  EXPECT_LE(s.throughput, 8.0 + 1e-4);
  // Every pair got at least its guaranteed fraction.
  for (std::size_t pi = 0; pi < lp.pairs().size(); ++pi) {
    double pair_total = 0;
    for (double r : s.path_rates[pi]) pair_total += r;
    EXPECT_GE(pair_total,
              s.min_fraction * lp.pairs()[pi].demand - 1e-5)
        << "pair " << lp.pairs()[pi].src << "->" << lp.pairs()[pi].dst;
  }
  // And the fair optimum serves strictly more pairs than the pure-
  // throughput optimum, which leaves (2,3) [paper 3->4] at zero.
  const FluidSolution throughput_only = lp.solve_balanced();
  std::size_t zero_pairs_fair = 0;
  std::size_t zero_pairs_throughput = 0;
  for (std::size_t pi = 0; pi < lp.pairs().size(); ++pi) {
    double fair_total = 0;
    double thr_total = 0;
    for (double r : s.path_rates[pi]) fair_total += r;
    for (double r : throughput_only.path_rates[pi]) thr_total += r;
    if (fair_total < 1e-7) ++zero_pairs_fair;
    if (thr_total < 1e-7) ++zero_pairs_throughput;
  }
  EXPECT_EQ(zero_pairs_fair, 0u);
  EXPECT_GE(zero_pairs_throughput, 0u);
}

TEST(MaxMinRouting, FullCirculationDemandIsFullyServed) {
  PaymentGraph demands(3);
  demands.add_demand(0, 1, 2.0);
  demands.add_demand(1, 2, 2.0);
  demands.add_demand(2, 0, 2.0);
  const Graph g = ring_topology(3, xrp(1'000'000));
  const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 1.0, 2);
  const FluidSolution s = lp.solve_max_min_balanced();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.min_fraction, 1.0, 1e-6);  // a circulation serves everyone
  EXPECT_NEAR(s.throughput, 6.0, 1e-5);
}

TEST(DemandEstimation, MatchesTraceRates) {
  std::vector<PaymentSpec> trace;
  trace.push_back({seconds(1), 0, 1, xrp(100), 0});
  trace.push_back({seconds(5), 0, 1, xrp(300), 0});
  trace.push_back({seconds(10), 2, 0, xrp(50), 0});
  const PaymentGraph pg = estimate_demand_matrix(3, trace);
  EXPECT_NEAR(pg.demand(0, 1), 40.0, 1e-9);  // 400 XRP over 10 s
  EXPECT_NEAR(pg.demand(2, 0), 5.0, 1e-9);
  EXPECT_NEAR(pg.demand(1, 0), 0.0, 1e-9);
}

TEST(DemandEstimation, HashedSumsMatchPerPaymentInsertsBitForBit) {
  // The estimate sums each pair's rates in trace order, so it must give the
  // same bits as inserting every payment into the graph one at a time.
  TrafficConfig traffic;
  traffic.seed = 3;
  const std::unique_ptr<SizeDistribution> sizes = ripple_synthetic_sizes();
  TrafficGenerator generator(40, traffic, *sizes);
  std::vector<PaymentSpec> trace = generator.generate(20'000);
  trace.push_back({trace.back().arrival, 5, 5, xrp(7), 0});  // self-pair
  trace.push_back({trace.back().arrival, 6, 9, 0, 0});       // zero amount
  const double span_seconds = to_seconds(trace.back().arrival);
  PaymentGraph reference(40);
  for (const PaymentSpec& spec : trace)
    if (spec.src != spec.dst)
      reference.add_demand(spec.src, spec.dst,
                           to_xrp(spec.amount) / span_seconds);

  const std::vector<DemandEdge> expected = reference.edges();
  const std::vector<DemandEdge> actual =
      estimate_demand_matrix(40, trace).edges();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].src, expected[i].src);
    EXPECT_EQ(actual[i].dst, expected[i].dst);
    EXPECT_EQ(actual[i].rate, expected[i].rate) << i;
  }
}

}  // namespace
}  // namespace spider
