// Tests for the architecture extensions beyond the paper's evaluated setup:
//   - AMP atomic mode (§4.1),
//   - router-queue mode with in-network channel queues (§4.2, Fig. 3),
//   - on-chain rebalancing deposits in the DES (§5.2.3).
#include <gtest/gtest.h>

#include "core/spider.hpp"
#include "routing/atomic_adapter.hpp"
#include "routing/shortest_path_router.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

PaymentSpec spec(double at_s, NodeId src, NodeId dst, Amount amount,
                 double deadline_s = 0) {
  PaymentSpec s;
  s.arrival = seconds(at_s);
  s.src = src;
  s.dst = dst;
  s.amount = amount;
  s.deadline = deadline_s > 0 ? seconds(deadline_s) : 0;
  return s;
}

Graph diamond(Amount cap) {
  Graph g(4);
  g.add_edge(0, 1, cap);
  g.add_edge(1, 3, cap);
  g.add_edge(0, 2, cap);
  g.add_edge(2, 3, cap);
  return g;
}

// ---- AMP atomic mode ----

TEST(AtomicAdapter, NameAndAtomicity) {
  AtomicAdapter adapter(std::make_unique<WaterfillingRouter>(4));
  EXPECT_EQ(adapter.name(), "Spider (Waterfilling) [AMP]");
  EXPECT_TRUE(adapter.is_atomic());
}

TEST(AtomicAdapter, RejectsAtomicInner) {
  EXPECT_THROW(AtomicAdapter(std::make_unique<AtomicAdapter>(
                   std::make_unique<WaterfillingRouter>(4))),
               AssertionError);
}

TEST(AtomicAdapter, FullPlansPassThrough) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  AtomicAdapter adapter(std::make_unique<WaterfillingRouter>(4));
  adapter.init(net, RouterInitContext{});
  Rng rng(1);
  Payment p;
  p.src = 0;
  p.dst = 3;
  p.total = xrp(8);
  const auto plan = adapter.plan(p, xrp(8), net, rng);
  Amount total = 0;
  for (const auto& c : plan) total += c.amount;
  EXPECT_EQ(total, xrp(8));  // both diamond arms used
}

TEST(AtomicAdapter, PartialPlansBecomeEmpty) {
  const Graph g = diamond(xrp(10));  // max joint flow 0->3 is 10
  Network net(g);
  AtomicAdapter adapter(std::make_unique<WaterfillingRouter>(4));
  adapter.init(net, RouterInitContext{});
  Rng rng(1);
  Payment p;
  p.src = 0;
  p.dst = 3;
  p.total = xrp(11);
  EXPECT_TRUE(adapter.plan(p, xrp(11), net, rng).empty());
}

TEST(AtomicAdapter, FactoryWrapsOnlyNonAtomicSchemes) {
  SpiderConfig config;
  config.amp_atomic = true;
  EXPECT_TRUE(
      make_router(Scheme::kSpiderWaterfilling, config)->is_atomic());
  EXPECT_EQ(make_router(Scheme::kSpiderWaterfilling, config)->name(),
            "Spider (Waterfilling) [AMP]");
  // Already-atomic schemes are not double-wrapped.
  EXPECT_EQ(make_router(Scheme::kMaxFlow, config)->name(), "Max-flow");
}

TEST(AtomicAdapter, RelaxingAtomicityImprovesEfficiency) {
  // §4.1's premise, end to end: under load, the non-atomic variant delivers
  // at least as much volume as its AMP twin (partials count; no all-or-
  // nothing rejections).
  const Graph g = isp_topology(xrp(1500));
  TrafficConfig traffic;
  traffic.tx_per_second = 300;
  traffic.seed = 9;
  SpiderConfig non_atomic;
  SpiderConfig atomic;
  atomic.amp_atomic = true;
  const SpiderNetwork relaxed_net(g, non_atomic);
  const SpiderNetwork amp_net(g, atomic);
  const auto trace = relaxed_net.synthesize_workload(1500, traffic);
  const double relaxed =
      relaxed_net.run(Scheme::kSpiderWaterfilling, trace).success_volume();
  const double amp =
      amp_net.run(Scheme::kSpiderWaterfilling, trace).success_volume();
  EXPECT_GE(relaxed, amp - 1e-9);
}

// ---- Router-queue mode (§4.2) ----

SimConfig router_queue_config() {
  SimConfig config;
  config.queueing = QueueingMode::kRouterQueue;
  config.hop_delay = milliseconds(100);
  config.queue_timeout = seconds(1.0);
  return config;
}

TEST(RouterQueue, RejectsAtomicScheme) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  AtomicAdapter adapter(std::make_unique<WaterfillingRouter>(1));
  EXPECT_THROW(Simulator(net, adapter, router_queue_config()),
               AssertionError);
}

TEST(RouterQueue, HopByHopDeliveryLatency) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  Simulator sim(net, router, router_queue_config());
  const SimMetrics m = sim.run({spec(1.0, 0, 2, xrp(2))});
  EXPECT_EQ(m.completed_count, 1);
  // Two hops at 100 ms each: lock hop0 at t, reach node1 at +0.1 (lock
  // hop1), reach destination at +0.2.
  EXPECT_DOUBLE_EQ(m.completion_latency_s.mean(), 0.2);
  EXPECT_EQ(m.chunks_queued, 0);
  net.check_invariants();
}

// Senders plan against the bottleneck they can see, so a unit only queues
// when a competing payment drains a downstream channel while the unit is in
// flight. The traces below construct that race deterministically: Pa plans
// 0->2 while channel (1,2) is full; Pb (whose FIRST hop is (1,2)) drains it
// before Pa's unit arrives at node 1.

TEST(RouterQueue, UnitWaitsInChannelQueueAndIsServed) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  WaterfillingRouter router(1);
  router.init(net, RouterInitContext{});
  SimConfig config = router_queue_config();
  config.default_deadline = seconds(10.0);
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m = sim.run({
      spec(0.10, 0, 2, xrp(3)),  // Pa: in flight toward node 1
      spec(0.12, 1, 2, xrp(5)),  // Pb: drains (1,2) before Pa arrives
      spec(0.30, 2, 1, xrp(4)),  // Pc: settles funds back onto node 1's side
  });
  EXPECT_EQ(m.completed_count, 3);  // Pa eventually served from the queue
  EXPECT_EQ(m.chunks_queued, 1);
  EXPECT_EQ(m.queue_timeouts, 0);
  EXPECT_EQ(m.served_queue_wait_us.count(), 1);
  EXPECT_GT(m.served_queue_wait_us.sum(), 0);
  net.check_invariants();
  retired.expect_every_id_once(3);
  for (const Payment& p : retired.records()) EXPECT_EQ(p.inflight, 0);
}

TEST(RouterQueue, QueueTimeoutRollsBackUpstreamLocks) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  WaterfillingRouter router(1);
  router.init(net, RouterInitContext{});
  SimConfig config = router_queue_config();
  config.default_deadline = seconds(3.0);
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m = sim.run({
      spec(0.10, 0, 2, xrp(3)),  // queues at (1,2), times out, expires
      spec(0.12, 1, 2, xrp(5)),  // drains the middle hop for good
  });
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.expired_count, 1);
  EXPECT_GE(m.queue_timeouts, 1);
  // The rolled-back unit returned its upstream lock: channel (0,1) intact.
  EXPECT_EQ(net.available(0, 0) + net.available(1, 0), xrp(10));
  net.check_invariants();
  retired.expect_every_id_once(2);
  for (const Payment& p : retired.records()) EXPECT_EQ(p.inflight, 0);
}

TEST(RouterQueue, HeadOfLineBlockingThenRelease) {
  // Two units queue at (1,2). A partial refill (2 XRP) cannot serve the
  // 4-XRP head, which also blocks the 1-XRP unit behind it (FIFO). Only
  // when the head times out does the small unit get through.
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  SimConfig config = router_queue_config();
  config.default_deadline = seconds(2.0);
  config.queue_timeout = seconds(1.5);
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  const SimMetrics m = sim.run({
      spec(0.10, 0, 2, xrp(4)),  // Pa: future head of the (1,2) queue
      spec(0.11, 0, 2, xrp(1)),  // Pb: small unit behind it
      spec(0.12, 1, 2, xrp(5)),  // Pc: drains (1,2) before both arrive
      spec(0.50, 2, 1, xrp(2)),  // Pd: refills 2 — not enough for the head
  });
  EXPECT_EQ(m.chunks_queued, 2);
  EXPECT_EQ(m.queue_timeouts, 1);  // the head gives up...
  EXPECT_EQ(m.completed_count, 3); // ...then Pb, plus Pc and Pd, complete
  EXPECT_EQ(m.expired_count, 1);   // Pa expires with nothing delivered
  net.check_invariants();
  retired.expect_every_id_once(4);
  for (const Payment& p : retired.records()) EXPECT_EQ(p.inflight, 0);
}

TEST(RouterQueue, LoadedIspRunKeepsInvariants) {
  const Graph g = isp_topology(xrp(2000));
  SpiderConfig spider_config;
  spider_config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork network(g, spider_config);
  TrafficConfig traffic;
  traffic.tx_per_second = 200;
  traffic.seed = 5;
  const auto trace = network.synthesize_workload(800, traffic);
  const SimMetrics m = network.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_EQ(m.attempted_count, 800);
  EXPECT_GT(m.success_volume(), 0.2);
  EXPECT_GT(m.chunks_queued, 0);  // queues actually exercised under load
}

TEST(RouterQueue, DeterministicForFixedSeed) {
  const Graph g = isp_topology(xrp(1500));
  SpiderConfig spider_config;
  spider_config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork network(g, spider_config);
  TrafficConfig traffic;
  traffic.tx_per_second = 250;
  traffic.seed = 6;
  const auto trace = network.synthesize_workload(500, traffic);
  const SimMetrics a = network.run(Scheme::kSpiderWaterfilling, trace);
  const SimMetrics b = network.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.chunks_queued, b.chunks_queued);
  EXPECT_EQ(a.queue_timeouts, b.queue_timeouts);
}

// ---- On-chain rebalancing in the DES (§5.2.3) ----

TEST(Rebalancing, DisabledByDefault) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  Simulator sim(net, router, SimConfig{});
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(3))});
  EXPECT_EQ(m.onchain_deposited, 0);
  EXPECT_EQ(net.total_funds(), xrp(10));
}

TEST(Rebalancing, DepositsUnlockDagDemand) {
  // Pure one-directional demand on a single channel: without deposits only
  // the initial 5 XRP can ever cross; with deposits, far more.
  const Graph g = line_topology(2, xrp(10));
  const auto run_with_rate = [&](double rate) {
    Network net(g);
    ShortestPathRouter router;
    router.init(net, RouterInitContext{});
    SimConfig config;
    config.default_deadline = seconds(20.0);
    config.rebalance_interval = seconds(0.5);
    config.rebalance_rate_xrp_per_s = rate;
    Simulator sim(net, router, config);
    std::vector<PaymentSpec> trace;
    for (int i = 0; i < 20; ++i)
      trace.push_back(spec(0.5 + 0.2 * i, 0, 1, xrp(1)));
    const SimMetrics m = sim.run(trace);
    // Deposits grow the ledger by exactly what was deposited.
    EXPECT_EQ(net.total_funds(), xrp(10) + m.onchain_deposited);
    net.check_invariants();
    return m;
  };
  const SimMetrics none = run_with_rate(0.0);
  const SimMetrics some = run_with_rate(2.0);
  EXPECT_EQ(none.onchain_deposited, 0);
  EXPECT_EQ(none.delivered_volume, xrp(5));  // the initial side balance
  EXPECT_GT(some.onchain_deposited, 0);
  EXPECT_GT(some.delivered_volume, none.delivered_volume);
}

TEST(Rebalancing, SuccessGrowsWithBudget) {
  const Graph g = isp_topology(xrp(1000));
  TrafficConfig traffic;
  traffic.tx_per_second = 200;
  traffic.seed = 8;
  double previous = -1.0;
  for (double rate : {0.0, 2000.0, 20000.0}) {
    SpiderConfig config;
    config.sim.rebalance_interval = seconds(0.5);
    config.sim.rebalance_rate_xrp_per_s = rate;
    const SpiderNetwork network(g, config);
    const auto trace = network.synthesize_workload(1200, traffic);
    const double volume =
        network.run(Scheme::kSpiderWaterfilling, trace).success_volume();
    EXPECT_GE(volume, previous - 0.02) << "rate " << rate;
    previous = volume;
  }
  EXPECT_GT(previous, 0.5);  // ample deposits push volume well up
}

TEST(Rebalancing, WorksTogetherWithRouterQueues) {
  const Graph g = isp_topology(xrp(1000));
  SpiderConfig config;
  config.sim.queueing = QueueingMode::kRouterQueue;
  config.sim.rebalance_interval = seconds(0.5);
  config.sim.rebalance_rate_xrp_per_s = 5000.0;
  const SpiderNetwork network(g, config);
  TrafficConfig traffic;
  traffic.tx_per_second = 200;
  traffic.seed = 9;
  const auto trace = network.synthesize_workload(600, traffic);
  const SimMetrics m = network.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_GT(m.onchain_deposited, 0);
  EXPECT_GT(m.success_volume(), 0.3);
}

// ---- Routing-fee accounting ----

TEST(Fees, ZeroByDefault) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  Simulator sim(net, router, SimConfig{});
  const SimMetrics m = sim.run({spec(1.0, 0, 2, xrp(2))});
  EXPECT_EQ(m.fees_accrued, 0);
  EXPECT_DOUBLE_EQ(m.fee_per_kilo_delivered(), 0.0);
}

TEST(Fees, ExactAccountingOnKnownPath) {
  // 0->2 over one intermediary: fee = 1 * (base + rate * amount).
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.fee_base = xrp(1);
  config.fee_rate = 0.5;
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 2, xrp(4))});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.fees_accrued, xrp(1) + xrp(2));  // base + 0.5 * 4
}

TEST(Fees, DirectChannelIsFree) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  SimConfig config;
  config.fee_base = xrp(1);
  config.fee_rate = 0.5;
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(4))});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.fees_accrued, 0);  // no intermediary, no fee
}

TEST(Fees, AccruedInRouterQueueModeToo) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  SimConfig config = router_queue_config();
  config.fee_base = xrp(1);
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 2, xrp(2))});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.fees_accrued, xrp(1));
}

TEST(Fees, MoreHopsCostMore) {
  // Same payment via a 2-hop route vs a 4-hop route.
  const Graph short_g = line_topology(3, xrp(10));
  const Graph long_g = line_topology(5, xrp(10));
  SimConfig config;
  config.fee_base = xrp(1);
  const auto run_line = [&](const Graph& g, NodeId dst) {
    Network net(g);
    ShortestPathRouter router;
    router.init(net, RouterInitContext{});
    Simulator sim(net, router, config);
    return sim.run({spec(1.0, 0, dst, xrp(2))});
  };
  EXPECT_LT(run_line(short_g, 2).fees_accrued,
            run_line(long_g, 4).fees_accrued);
}

TEST(Rebalancing, ConfigValidation) {
  SpiderConfig config;
  config.sim.rebalance_rate_xrp_per_s = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  SpiderConfig config2;
  config2.sim.queue_timeout = 0;
  EXPECT_THROW(config2.validate(), std::invalid_argument);
  SpiderConfig config3;
  config3.sim.hop_delay = -5;
  EXPECT_THROW(config3.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace spider
