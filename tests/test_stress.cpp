// Stress / fuzz suites: adversarially random routers, heavy randomized
// workloads, and long soak runs. Whatever the routing layer throws at it,
// the simulator must keep every financial invariant exactly.
#include <gtest/gtest.h>

#include "core/spider.hpp"
#include "graph/spanning_tree.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

/// Fuzz double: plans 1–3 chunks along random spanning-tree paths with
/// amounts that may exceed what the paths (or the payment) support — the
/// simulator must clamp, partially lock, or skip them safely.
class ChaoticRouter final : public Router {
 public:
  explicit ChaoticRouter(std::uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "Chaotic"; }
  bool is_atomic() const override { return false; }

  void init(const Network& network, const RouterInitContext&) override {
    Rng rng(seed_);
    for (int t = 0; t < 4; ++t) {
      const NodeId root = static_cast<NodeId>(
          rng.uniform_int(0, network.graph().num_nodes() - 1));
      trees_.push_back(bfs_spanning_tree(network.graph(), root, &rng));
    }
  }

  std::vector<ChunkPlan> plan(const Payment& payment, Amount amount,
                              const Network& network, Rng& rng) override {
    // ChunkPlans borrow paths, so materialize them all into the per-plan
    // scratch first (no reallocation once a pointer is taken).
    scratch_paths_.clear();
    std::vector<Amount> wilds;
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      const SpanningTree& tree = trees_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(trees_.size()) - 1))];
      const auto nodes = tree_path(tree, payment.src, payment.dst);
      if (nodes.size() < 2) continue;
      scratch_paths_.push_back(make_path(network.graph(), nodes));
      // Deliberately oversized amounts: up to 2x what is asked.
      wilds.push_back(rng.uniform_int(1, std::max<Amount>(1, amount * 2)));
    }
    std::vector<ChunkPlan> chunks;
    for (std::size_t i = 0; i < scratch_paths_.size(); ++i)
      chunks.push_back(ChunkPlan{&scratch_paths_[i], wilds[i]});
    return chunks;
  }

 private:
  std::uint64_t seed_;
  std::vector<SpanningTree> trees_;
  std::vector<Path> scratch_paths_;
};

std::vector<PaymentSpec> random_trace(NodeId nodes, int count,
                                      std::uint64_t seed,
                                      Amount max_amount) {
  Rng rng(seed);
  std::vector<PaymentSpec> trace;
  double now = 0;
  for (int i = 0; i < count; ++i) {
    now += rng.exponential(0.004);
    PaymentSpec spec;
    spec.arrival = seconds(now);
    spec.src = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    do {
      spec.dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    } while (spec.dst == spec.src);
    spec.amount = rng.uniform_int(1, max_amount);
    trace.push_back(spec);
  }
  return trace;
}

void expect_clean_outcome(const Network& net, const RetiredPayments& retired,
                          const SimMetrics& m, Amount funds_before) {
  EXPECT_EQ(net.total_funds(), funds_before + m.onchain_deposited);
  net.check_invariants();
  retired.expect_every_id_once(static_cast<std::size_t>(m.attempted_count));
  Amount delivered = 0;
  for (const Payment& p : retired.records()) {
    EXPECT_EQ(p.inflight, 0);
    EXPECT_LE(p.delivered, p.total);
    EXPECT_NE(p.status, PaymentStatus::kPending);
    delivered += p.delivered;
  }
  EXPECT_EQ(delivered, m.delivered_volume);
}

class ChaoticRouterFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaoticRouterFuzz, SourceModeSurvivesWildPlans) {
  Rng topo_rng(GetParam());
  const Graph g = erdos_renyi_topology(20, 0.15, xrp(500), topo_rng);
  Network net(g);
  const Amount before = net.total_funds();
  ChaoticRouter router(GetParam() ^ 0xc0ffeeULL);
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.seed = GetParam();
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m =
      sim.run(random_trace(20, 600, GetParam() * 31 + 7, xrp(400)));
  expect_clean_outcome(net, retired, m, before);
  EXPECT_EQ(m.attempted_count, 600);
}

TEST_P(ChaoticRouterFuzz, RouterQueueModeSurvivesWildPlans) {
  Rng topo_rng(GetParam() ^ 0x9999ULL);
  const Graph g = barabasi_albert_topology(24, 2, xrp(400), topo_rng);
  Network net(g);
  const Amount before = net.total_funds();
  ChaoticRouter router(GetParam());
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.queueing = QueueingMode::kRouterQueue;
  config.queue_timeout = seconds(0.7);
  config.seed = GetParam();
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m =
      sim.run(random_trace(24, 500, GetParam() * 17 + 3, xrp(300)));
  expect_clean_outcome(net, retired, m, before);
}

TEST_P(ChaoticRouterFuzz, RouterQueueWithRebalancingAndMtu) {
  Rng topo_rng(GetParam() ^ 0x1111ULL);
  const Graph g = watts_strogatz_topology(18, 2, 0.2, xrp(300), topo_rng);
  Network net(g);
  const Amount before = net.total_funds();
  ChaoticRouter router(GetParam() + 5);
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.queueing = QueueingMode::kRouterQueue;
  config.mtu = xrp(40);
  config.rebalance_interval = seconds(0.4);
  config.rebalance_rate_xrp_per_s = 700.0;
  config.seed = GetParam();
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m =
      sim.run(random_trace(18, 400, GetParam() * 13 + 1, xrp(250)));
  expect_clean_outcome(net, retired, m, before);
  EXPECT_GT(m.onchain_deposited, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaoticRouterFuzz,
                         testing::Values(1, 2, 3, 4, 5, 6));

TEST(Soak, TwentyThousandPaymentsStayConsistent) {
  const Graph g = isp_topology(xrp(3000));
  Network net(g);
  const Amount before = net.total_funds();
  WaterfillingRouter router(4);
  router.init(net, RouterInitContext{});
  SimConfig config;
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig traffic;
  traffic.tx_per_second = 800;
  traffic.seed = 77;
  TrafficGenerator generator(32, traffic, *sizes);
  const SimMetrics m = sim.run(generator.generate(20'000));
  expect_clean_outcome(net, retired, m, before);
  EXPECT_EQ(m.attempted_count, 20'000);
  EXPECT_GT(m.success_ratio(), 0.3);
}

TEST(Soak, BurstyArrivalsAllAtOnce) {
  // Every payment arrives at the same instant: the pending queue absorbs
  // the burst and drains it over polls.
  const Graph g = isp_topology(xrp(3000));
  Network net(g);
  const Amount before = net.total_funds();
  WaterfillingRouter router(4);
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.default_deadline = seconds(30.0);
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  Rng rng(3);
  std::vector<PaymentSpec> trace;
  for (int i = 0; i < 2000; ++i) {
    PaymentSpec spec;
    spec.arrival = seconds(1.0);
    spec.src = static_cast<NodeId>(rng.uniform_int(0, 31));
    do {
      spec.dst = static_cast<NodeId>(rng.uniform_int(0, 31));
    } while (spec.dst == spec.src);
    spec.amount = rng.uniform_int(1, xrp(200));
    trace.push_back(spec);
  }
  const SimMetrics m = sim.run(trace);
  expect_clean_outcome(net, retired, m, before);
  EXPECT_GT(m.success_ratio(), 0.5);
}

TEST(Soak, TinyChannelsExtremeContention) {
  // Channels hold a single XRP: almost everything fails, but nothing leaks.
  const Graph g = isp_topology(xrp(1));
  Network net(g);
  const Amount before = net.total_funds();
  WaterfillingRouter router(4);
  router.init(net, RouterInitContext{});
  Simulator sim(net, router, SimConfig{});
  RetiredPayments retired;
  sim.attach(retired);
  const auto sizes = ripple_synthetic_sizes();
  TrafficConfig traffic;
  traffic.tx_per_second = 200;
  traffic.seed = 5;
  TrafficGenerator generator(32, traffic, *sizes);
  const SimMetrics m = sim.run(generator.generate(1000));
  expect_clean_outcome(net, retired, m, before);
  EXPECT_LT(m.success_volume(), 0.1);
}

// ---- Admission control (§7) ----

TEST(AdmissionControl, RefusesOversizedPayments) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  WaterfillingRouter router(1);
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.admission_cap = xrp(2);
  Simulator sim(net, router, config);
  std::vector<PaymentSpec> trace;
  PaymentSpec small;
  small.arrival = seconds(1.0);
  small.src = 0;
  small.dst = 1;
  small.amount = xrp(2);
  PaymentSpec large = small;
  large.arrival = seconds(1.1);
  large.amount = xrp(3);
  const SimMetrics m = sim.run({small, large});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.rejected_count, 1);
  EXPECT_EQ(m.admission_refused, 1);
  EXPECT_EQ(m.attempted_count, 2);  // refusals still count as attempted
}

TEST(AdmissionControl, CapRaisesSuccessRatioUnderLoad) {
  const Graph g = isp_topology(xrp(1000));
  TrafficConfig traffic;
  traffic.tx_per_second = 300;
  traffic.seed = 12;
  SpiderConfig open_config;
  SpiderConfig capped_config;
  capped_config.sim.admission_cap = xrp(400);
  const SpiderNetwork open_net(g, open_config);
  const SpiderNetwork capped_net(g, capped_config);
  const auto trace = open_net.synthesize_workload(2500, traffic);
  const SimMetrics open_run =
      open_net.run(Scheme::kSpiderWaterfilling, trace);
  const SimMetrics capped_run =
      capped_net.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_GT(capped_run.admission_refused, 0);
  // The §7 effect: among ADMITTED payments, completion improves — the
  // refused heavy tail no longer monopolizes inflight funds. (The overall
  // ratio can drop, since refusals count as failures.)
  EXPECT_GT(capped_run.admitted_success_ratio(),
            open_run.admitted_success_ratio());
}

TEST(AdmissionControl, ZeroCapDisables) {
  SpiderConfig config;
  EXPECT_EQ(config.sim.admission_cap, 0);
  EXPECT_NO_THROW(config.validate());
  config.sim.admission_cap = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace spider
