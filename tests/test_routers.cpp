// Per-scheme unit tests: each router's planning behaviour on small networks
// where the right answer is known.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "routing/landmark_router.hpp"
#include "routing/lp_router.hpp"
#include "routing/maxflow_router.hpp"
#include "routing/path_cache.hpp"
#include "routing/primal_dual_router.hpp"
#include "routing/shortest_path_router.hpp"
#include "routing/speedy_router.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "workload/churn.hpp"

namespace spider {
namespace {

Payment make_payment(NodeId src, NodeId dst, Amount total) {
  Payment p;
  p.id = 1;
  p.src = src;
  p.dst = dst;
  p.total = total;
  return p;
}

Graph diamond(Amount cap) {
  Graph g(4);
  g.add_edge(0, 1, cap);
  g.add_edge(1, 3, cap);
  g.add_edge(0, 2, cap);
  g.add_edge(2, 3, cap);
  return g;
}

TEST(PathCacheTest, CachesAndHonoursSelection) {
  const Graph g = diamond(xrp(10));
  PathCache cache(g, 4, PathSelection::kEdgeDisjoint);
  const std::span<const Path> paths = cache.paths(0, 3);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_FALSE(cache.contains(3, 0));  // directional: only (0,3) computed
  EXPECT_TRUE(cache.contains(0, 3));
  // Cached: the second lookup resolves to the same stored objects.
  EXPECT_EQ(cache.paths(0, 3).data(), paths.data());
  EXPECT_EQ(cache.pair_count(), 1u);
  PathCache yen(g, 4, PathSelection::kYen);
  EXPECT_GE(yen.paths(0, 3).size(), 2u);
}

TEST(PathCacheTest, SelfPairYieldsNoPaths) {
  const Graph g = diamond(xrp(10));
  PathCache cache(g, 4, PathSelection::kEdgeDisjoint);
  EXPECT_TRUE(cache.paths(2, 2).empty());
  EXPECT_TRUE(cache.cached(2, 2).empty());
  EXPECT_TRUE(cache.contains(2, 2));  // answered without storing anything
  EXPECT_EQ(cache.pair_count(), 0u);
}

// ---- Shortest path ----

TEST(ShortestPathRouterTest, SendsBottleneckOnShortestPath) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan =
      router.plan(make_payment(0, 2, xrp(8)), xrp(8), net, rng);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].amount, xrp(5));  // bottleneck, not the full 8
  EXPECT_EQ(plan[0].path->length(), 2u);
}

TEST(ShortestPathRouterTest, EmptyPlanWhenDrained) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  net.lock_path(make_path(g, {0, 1}), xrp(5));
  ShortestPathRouter router;
  router.init(net, RouterInitContext{});
  Rng rng(1);
  EXPECT_TRUE(router.plan(make_payment(0, 1, xrp(1)), xrp(1), net, rng)
                  .empty());
}

TEST(ShortestPathRouterTest, NotAtomic) {
  EXPECT_FALSE(ShortestPathRouter().is_atomic());
}

// ---- Waterfilling ----

TEST(Waterfill, EqualizesCapacities) {
  // caps 10, 6, 2; amount 8 -> fill top to 6 (4), then both to 4 (4):
  // alloc = 6, 2, 0.
  const auto alloc = waterfill(8, {10, 6, 2});
  EXPECT_EQ(alloc, (std::vector<Amount>{6, 2, 0}));
}

TEST(Waterfill, ExhaustsAllCapacity) {
  const auto alloc = waterfill(100, {10, 6, 2});
  EXPECT_EQ(alloc, (std::vector<Amount>{10, 6, 2}));
}

TEST(Waterfill, SpreadsRemainderEvenly) {
  const auto alloc = waterfill(5, {10, 10});
  EXPECT_EQ(alloc[0] + alloc[1], 5);
  EXPECT_LE(std::abs(alloc[0] - alloc[1]), 1);
}

TEST(Waterfill, ZeroAmountAndEmptyPaths) {
  EXPECT_EQ(waterfill(0, {5, 5}), (std::vector<Amount>{0, 0}));
  EXPECT_TRUE(waterfill(5, {}).empty());
}

TEST(Waterfill, SinglePath) {
  EXPECT_EQ(waterfill(3, {10}), (std::vector<Amount>{3}));
  EXPECT_EQ(waterfill(30, {10}), (std::vector<Amount>{10}));
}

TEST(Waterfill, PropertyRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<Amount> caps;
    Amount cap_total = 0;
    for (int i = 0; i < n; ++i) {
      caps.push_back(rng.uniform_int(0, 50));
      cap_total += caps.back();
    }
    const Amount amount = rng.uniform_int(0, 70);
    const auto alloc = waterfill(amount, caps);
    Amount total = 0;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      EXPECT_GE(alloc[i], 0);
      EXPECT_LE(alloc[i], caps[i]);
      total += alloc[i];
    }
    EXPECT_EQ(total, std::min(amount, cap_total));
    // Water-level invariant: all touched paths end within one rounding
    // quantum of a common residual level L, and every untouched path's
    // full capacity already sits at or below that level.
    Amount level_lo = std::numeric_limits<Amount>::max();
    Amount level_hi = -1;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      if (alloc[i] == 0) continue;
      const Amount residual = caps[i] - alloc[i];
      level_lo = std::min(level_lo, residual);
      level_hi = std::max(level_hi, residual);
    }
    if (level_hi >= 0) {
      EXPECT_LE(level_hi - level_lo, 1) << "touched paths not equalized";
      for (std::size_t j = 0; j < caps.size(); ++j) {
        if (alloc[j] == 0) {
          EXPECT_LE(caps[j], level_hi + 1);
        }
      }
    }
  }
}

TEST(WaterfillingRouterTest, SplitsAcrossDisjointPaths) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  WaterfillingRouter router(4);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 3, xrp(8)), xrp(8), net, rng);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].amount + plan[1].amount, xrp(8));
  EXPECT_LE(std::abs(plan[0].amount - plan[1].amount), 1);
}

TEST(WaterfillingRouterTest, PrefersFatterPath) {
  Graph g(4);
  g.add_edge(0, 1, xrp(20));
  g.add_edge(1, 3, xrp(20));
  g.add_edge(0, 2, xrp(4));
  g.add_edge(2, 3, xrp(4));
  Network net(g);
  WaterfillingRouter router(4);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 3, xrp(6)), xrp(6), net, rng);
  ASSERT_FALSE(plan.empty());
  // The 10-XRP-per-hop path takes the lion's share (waterfilling drains the
  // highest-capacity path down to the level of the next one).
  Amount fat = 0;
  for (const auto& chunk : plan)
    if (chunk.path->nodes[1] == 1) fat += chunk.amount;
  EXPECT_GE(fat, xrp(5));
}

// ---- LP router ----

TEST(LpRouterTest, RequiresDemandHint) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  LpRouter router(4);
  EXPECT_THROW(router.init(net, RouterInitContext{}), AssertionError);
}

TEST(LpRouterTest, CirculationDemandGetsWeights) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 2.0);
  demands.add_demand(1, 0, 2.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  context.delta_seconds = 0.5;
  LpRouter router(4);
  router.init(net, context);
  EXPECT_NEAR(router.fluid_throughput(), 4.0, 1e-5);
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 1, xrp(3)), xrp(3), net, rng);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].amount, xrp(3));
}

TEST(LpRouterTest, ZeroRatePairsNeverAttempted) {
  // Pure DAG demand: the balanced LP assigns zero everywhere, so the router
  // plans nothing — the §6.2 caveat, reproduced.
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 2.0);  // no reverse demand
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  EXPECT_NEAR(router.fluid_throughput(), 0.0, 1e-6);
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(0, 1, xrp(1)), xrp(1), net, rng).empty());
}

TEST(LpRouterTest, UnknownPairPlansNothing) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  PaymentGraph demands(4);
  demands.add_demand(0, 3, 1.0);
  demands.add_demand(3, 0, 1.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(1, 2, xrp(1)), xrp(1), net, rng).empty());
}

TEST(LpRouterTest, ReinitDropsPairsOnlyTheFirstMatrixHad) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  PaymentGraph both(4);
  both.add_demand(0, 3, 1.0);
  both.add_demand(3, 0, 1.0);
  both.add_demand(1, 2, 1.0);
  both.add_demand(2, 1, 1.0);
  RouterInitContext context;
  context.demand_hint = &both;
  LpRouter router(4);
  router.init(net, context);
  Rng rng(1);
  const auto plans = [&](NodeId src, NodeId dst) {
    return !router.plan(make_payment(src, dst, xrp(1)), xrp(1), net, rng)
                .empty();
  };
  ASSERT_TRUE(plans(0, 3));
  ASSERT_TRUE(plans(1, 2));

  PaymentGraph smaller(4);
  smaller.add_demand(1, 2, 1.0);
  smaller.add_demand(2, 1, 1.0);
  context.demand_hint = &smaller;
  router.init(net, context);
  EXPECT_FALSE(plans(0, 3));
  EXPECT_FALSE(plans(3, 0));
  EXPECT_TRUE(plans(1, 2));
  EXPECT_TRUE(plans(2, 1));
}

TEST(LpRouterTest, RowBoundariesPlanNothing) {
  // Routable pairs 0<->1 and 2<->3; node 4 (the highest id) has none.
  const Graph g = line_topology(5, xrp(10));
  Network net(g);
  PaymentGraph demands(5);
  demands.add_demand(0, 1, 1.0);
  demands.add_demand(1, 0, 1.0);
  demands.add_demand(2, 3, 1.0);
  demands.add_demand(3, 2, 1.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  Rng rng(1);
  const auto plans = [&](NodeId src, NodeId dst) {
    return !router.plan(make_payment(src, dst, xrp(1)), xrp(1), net, rng)
                .empty();
  };
  EXPECT_TRUE(plans(1, 0));
  EXPECT_TRUE(plans(3, 2));
  EXPECT_FALSE(plans(4, 3));  // last row, empty
  EXPECT_FALSE(plans(4, 0));
  // Source 1's only routable dst is 0; dst 3 sits in the next row (2 -> 3).
  EXPECT_FALSE(plans(1, 3));
  EXPECT_FALSE(plans(1, 2));
  EXPECT_FALSE(plans(3, 4));  // above every dst of source 3
}

TEST(LpRouterTest, BackToBackPlansMatch) {
  // Uneven paths (10 vs 4 XRP) under saturating demand give fractional
  // weights, so largest-remainder rounding decides the last units. Plans
  // interleaved with other pairs and amounts must match a fresh router's:
  // the scratch buffers carry nothing from one plan() to the next.
  Graph g(4);
  g.add_edge(0, 1, xrp(10));
  g.add_edge(1, 3, xrp(10));
  g.add_edge(0, 2, xrp(4));
  g.add_edge(2, 3, xrp(4));
  Network net(g);
  PaymentGraph demands(4);
  demands.add_demand(0, 3, 100.0);
  demands.add_demand(3, 0, 100.0);
  demands.add_demand(1, 2, 3.0);
  demands.add_demand(2, 1, 3.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  Rng rng(1);
  bool split = false;
  for (Amount k = 0; k < 40; ++k) {
    const Payment wide = make_payment(0, 3, xrp(1) + 37 * k);
    const Payment other = make_payment(k % 2 == 0 ? 1 : 2, k % 2 == 0 ? 2 : 1,
                                       xrp(1) + 53 * k);
    const auto first = router.plan(wide, wide.total, net, rng);
    (void)router.plan(other, other.total, net, rng);
    const auto second = router.plan(wide, wide.total, net, rng);
    LpRouter fresh(4);
    fresh.init(net, context);
    const auto expected = fresh.plan(wide, wide.total, net, rng);
    ASSERT_EQ(first.size(), expected.size()) << "k " << k;
    ASSERT_EQ(second.size(), expected.size()) << "k " << k;
    Amount total = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(first[i].amount, expected[i].amount) << "k " << k;
      EXPECT_EQ(second[i].amount, expected[i].amount) << "k " << k;
      EXPECT_EQ(first[i].path, second[i].path);
      EXPECT_EQ(first[i].path->nodes, expected[i].path->nodes);
      total += first[i].amount;
    }
    EXPECT_EQ(total, wide.total);
    split = split || expected.size() > 1;
  }
  EXPECT_TRUE(split);  // the pair really spreads over several paths
}

TEST(LpRouterTest, ZeroWeightPairsCountsAbsentPairs) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  PaymentGraph demands(3);
  demands.add_demand(0, 1, 1.0);
  demands.add_demand(1, 0, 1.0);
  demands.add_demand(1, 2, 1.0);  // one-way: the balanced LP zeroes it
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  EXPECT_EQ(router.zero_weight_pairs(), 1);
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(1, 2, xrp(1)), xrp(1), net, rng).empty());

  PaymentGraph circulation(3);
  circulation.add_demand(0, 1, 1.0);
  circulation.add_demand(1, 0, 1.0);
  context.demand_hint = &circulation;
  router.init(net, context);
  EXPECT_EQ(router.zero_weight_pairs(), 0);
}

TEST(LpRouterTest, ReadSetIsThePairsPlanTableSpan) {
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  PaymentGraph demands(3);
  demands.add_demand(0, 1, 1.0);
  demands.add_demand(1, 0, 1.0);
  demands.add_demand(1, 2, 1.0);  // one-way: zeroed
  RouterInitContext context;
  context.demand_hint = &demands;
  LpRouter router(4);
  router.init(net, context);
  EXPECT_EQ(router.plan_speculation(), PlanSpeculation::kCandidatePaths);
  const std::span<const Path> read = router.plan_read_paths(0, 1, net);
  ASSERT_FALSE(read.empty());
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 1, xrp(2)), xrp(2), net, rng);
  ASSERT_FALSE(plan.empty());
  for (const ChunkPlan& chunk : plan) {
    EXPECT_GE(chunk.path, read.data());
    EXPECT_LT(chunk.path, read.data() + read.size());
  }
  EXPECT_TRUE(router.plan_read_paths(1, 2, net).empty());  // zeroed
  EXPECT_TRUE(router.plan_read_paths(0, 2, net).empty());  // never modelled
  EXPECT_TRUE(router.plan_read_paths(2, 0, net).empty());  // last row
  EXPECT_TRUE(router.plan_read_paths(kInvalidNode, 0, net).empty());
}

// ---- Parking the pairs Spider (LP) never routes ----
//
// With PlanSpeculation::kCandidatePaths the simulator parks a payment whose
// pair has an empty read set until its deadline instead of re-planning it
// at every poll. The reference is the same router behind a wrapper that
// hides the promise (kNone), so every payment is planned as before.

/// Forwards every Router call to `inner`. With `promise` false it hides the
/// inner router's PlanSpeculation. Counts plan() calls, and those for a
/// pair whose inner read set is empty.
class ForwardingRouter final : public Router {
 public:
  ForwardingRouter(std::unique_ptr<Router> inner, bool promise)
      : inner_(std::move(inner)), promise_(promise) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool is_atomic() const override { return inner_->is_atomic(); }
  void init(const Network& network, const RouterInitContext& context) override {
    inner_->init(network, context);
  }
  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override {
    ++plans;
    if (inner_->plan_read_paths(payment.src, payment.dst, network).empty())
      ++unplannable_plans;
    return inner_->plan(payment, amount, network, rng);
  }
  void on_tick(const Network& network, TimePoint now) override {
    inner_->on_tick(network, now);
  }
  [[nodiscard]] PlanSpeculation plan_speculation() const override {
    return promise_ ? inner_->plan_speculation() : PlanSpeculation::kNone;
  }
  [[nodiscard]] std::span<const Path> plan_read_paths(
      NodeId src, NodeId dst, const Network& network) override {
    return inner_->plan_read_paths(src, dst, network);
  }
  void bind_transport(const RouterQueueBank* queues) override {
    inner_->bind_transport(queues);
  }
  void on_transport_clock(TimePoint now) override {
    inner_->on_transport_clock(now);
  }
  void on_transport_send(const Path& path, Amount amount,
                         TimePoint now) override {
    inner_->on_transport_send(path, amount, now);
  }
  void on_transport_ack(const Path& path, Amount amount, bool marked,
                        Duration rtt, TimePoint now) override {
    inner_->on_transport_ack(path, amount, marked, rtt, now);
  }
  void on_transport_loss(const Path& path, Amount amount,
                         TimePoint now) override {
    inner_->on_transport_loss(path, amount, now);
  }

  std::int64_t plans = 0;
  std::int64_t unplannable_plans = 0;

 private:
  std::unique_ptr<Router> inner_;
  bool promise_;
};

class PollRecorder final : public SimObserver {
 public:
  void on_poll_round(std::size_t pending, TimePoint now) override {
    rounds.emplace_back(pending, now);
  }
  std::vector<std::pair<std::size_t, TimePoint>> rounds;
};

struct ParkingMode {
  const char* name;
  bool streamed = false;
  bool router_queue = false;
  bool churn = false;
  bool faults = false;
  bool pace_and_rebalance = false;  // transport pace tick + deposits
};

struct ParkingRun {
  SimMetrics metrics;
  std::vector<std::pair<std::size_t, TimePoint>> polls;
  std::vector<Payment> retired;
  std::int64_t plans = 0;
  std::int64_t unplannable_plans = 0;
};

/// Entries of `from` up to `horizon`, appended to `into`.
template <typename T>
void submit_until(std::vector<T>& into, const std::vector<T>& from,
                  TimePoint horizon, TimePoint T::*time) {
  while (into.size() < from.size() && from[into.size()].*time <= horizon)
    into.push_back(from[into.size()]);
}

struct ParkingWorkload {
  ScenarioInstance scenario;
  std::vector<TopologyChange> churn;
  std::vector<FaultEvent> faults;
};

ParkingWorkload parking_workload(const std::string& name) {
  ScenarioParams params;
  params.payments = 600;
  params.traffic_seed = 21;
  ParkingWorkload w{build_scenario(name, params), {}, {}};
  const TimePoint span = w.scenario.trace.back().arrival;
  ChurnConfig churn;
  churn.events_per_second = 20.0;
  churn.start = span / 10;
  churn.stop = span;
  churn.seed = 5;
  w.churn = ChurnSchedule(w.scenario.graph, churn).generate();
  w.faults = w.scenario.faults;
  if (w.faults.empty()) {
    w.faults = {FaultEvent::stall(span / 10, 3, span / 4),
                FaultEvent::crash(span / 8, 7),
                FaultEvent::loss(span / 6, 5, 0.5),
                FaultEvent::settle_delay(span / 5, 10, milliseconds(50)),
                FaultEvent::grief(span / 4, 2, milliseconds(300)),
                FaultEvent::recover(span / 2, 7),
                FaultEvent::loss(3 * span / 4, 5, 0.0)};
  }
  return w;
}

SimConfig parking_config(const ParkingWorkload& w, const ParkingMode& mode) {
  SimConfig sim = w.scenario.config.sim;
  sim.seed = 7;
  if (mode.router_queue) sim.queueing = QueueingMode::kRouterQueue;
  if (mode.pace_and_rebalance) {
    sim.transport.enabled = true;
    sim.rebalance_interval = milliseconds(250);
    sim.rebalance_rate_xrp_per_s = 200.0;
  }
  return sim;
}

/// The workload's LP, solved once; each run plans on a copy of it.
LpRouter solved_lp(const ParkingWorkload& w, LpObjective objective) {
  const SpiderConfig& config = w.scenario.config;
  LpRouter router(config.num_paths, config.lp_max_pairs, objective);
  const Network network(w.scenario.graph);
  init_router_for_run(router, network, config.sim, &w.scenario.trace,
                      nullptr);
  return router;
}

/// `trace` plus a tail of payments on a pair `solved` never plans, arriving
/// after everything else: at the end of the run only parked payments are
/// left, and every service chain must keep ticking for them alone.
std::vector<PaymentSpec> with_parked_tail(std::vector<PaymentSpec> trace,
                                          const LpRouter& solved,
                                          const Graph& graph) {
  LpRouter lp = solved;
  const Network network(graph);
  PaymentSpec tail;
  for (NodeId src = 0; src < graph.num_nodes() && tail.amount == 0; ++src)
    for (NodeId dst = 0; dst < graph.num_nodes(); ++dst) {
      if (src == dst || !lp.plan_read_paths(src, dst, network).empty())
        continue;
      tail.src = src;
      tail.dst = dst;
      tail.amount = xrp(1);
      break;
    }
  EXPECT_GT(tail.amount, 0);
  tail.deadline = seconds(10.0);
  for (int i = 0; i < 3; ++i) {
    tail.arrival = trace.back().arrival + milliseconds(400);
    trace.push_back(tail);
  }
  return trace;
}

/// `trace` with relative deadlines alternating 1 s and 8 s: consecutive
/// parked payments then expire out of arrival order, which the parked
/// queue serves through its heap rather than its FIFO lane.
std::vector<PaymentSpec> with_alternating_deadlines(
    std::vector<PaymentSpec> trace) {
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].deadline = seconds(i % 2 == 0 ? 1.0 : 8.0);
  return trace;
}

ParkingRun run_parking(const ParkingWorkload& w,
                       const std::vector<PaymentSpec>& trace,
                       const SimConfig& sim, const LpRouter& solved,
                       const ParkingMode& mode, bool promise) {
  ForwardingRouter router(std::make_unique<LpRouter>(solved), promise);
  Network network(w.scenario.graph);
  Simulator simulator(network, router, sim);
  PollRecorder polls;
  RetiredPayments retired;
  simulator.attach(polls);
  simulator.attach(retired);

  const std::vector<TopologyChange> no_churn;
  const std::vector<FaultEvent> no_faults;
  const std::vector<TopologyChange>& churn = mode.churn ? w.churn : no_churn;
  const std::vector<FaultEvent>& faults = mode.faults ? w.faults : no_faults;
  std::vector<PaymentSpec> trace_in;
  std::vector<TopologyChange> churn_in;
  std::vector<FaultEvent> faults_in;
  if (!mode.streamed) {
    simulator.begin(trace);
    simulator.begin_topology(churn);
    simulator.begin_faults(faults);
  } else {
    simulator.begin(trace_in);
    simulator.begin_topology(churn_in);
    simulator.begin_faults(faults_in);
    const TimePoint span = trace.back().arrival;
    for (const TimePoint horizon : {span / 4, span / 2, 3 * span / 4, span}) {
      submit_until(churn_in, churn, horizon, &TopologyChange::at);
      submit_until(faults_in, faults, horizon, &FaultEvent::at);
      submit_until(trace_in, trace, horizon, &PaymentSpec::arrival);
      simulator.topology_extended();
      simulator.faults_extended();
      simulator.trace_extended();
      (void)simulator.advance_until(horizon);
    }
    EXPECT_EQ(trace_in.size(), trace.size());
  }
  (void)simulator.drain();
  return ParkingRun{simulator.metrics(), std::move(polls.rounds),
                    retired.records(), router.plans, router.unplannable_plans};
}

/// Everything but the two attempt counters is identical; those fall.
void expect_parked_matches(const ParkingRun& parked,
                           const ParkingRun& unparked) {
  EXPECT_LE(parked.metrics.retries, unparked.metrics.retries);
  EXPECT_LE(parked.metrics.plans_requested, unparked.metrics.plans_requested);
  SimMetrics lowered = unparked.metrics;
  lowered.retries = parked.metrics.retries;
  lowered.plans_requested = parked.metrics.plans_requested;
  expect_identical_metrics(parked.metrics, lowered);
  EXPECT_EQ(parked.polls, unparked.polls);
  ASSERT_EQ(parked.retired.size(), unparked.retired.size());
  for (std::size_t i = 0; i < parked.retired.size(); ++i) {
    const Payment& a = parked.retired[i];
    const Payment& b = unparked.retired[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.completed_at, b.completed_at);
    EXPECT_LE(a.attempts, b.attempts);
  }
}

const ParkingMode kParkingModes[] = {
    {"batch"},
    {"streamed", /*streamed=*/true},
    {"router-queue", false, /*router_queue=*/true},
    {"churn", false, false, /*churn=*/true},
    {"faults", false, false, false, /*faults=*/true},
    {"streamed router-queue churn faults pace rebalance", true, true, true,
     true, true},
};

TEST(LpParking, MatchesUnparkedRunInEveryMode) {
  for (const char* scenario : {"isp", "griefing"}) {
    const ParkingWorkload w = parking_workload(scenario);
    for (const LpObjective objective :
         {LpObjective::kThroughput, LpObjective::kMaxMinFairness}) {
      const LpRouter lp = solved_lp(w, objective);
      for (const bool mixed_deadlines : {false, true}) {
        const std::vector<PaymentSpec> trace = with_parked_tail(
            mixed_deadlines ? with_alternating_deadlines(w.scenario.trace)
                            : w.scenario.trace,
            lp, w.scenario.graph);
        for (const ParkingMode& mode : kParkingModes) {
          SCOPED_TRACE(std::string(scenario) + " / " +
                       (objective == LpObjective::kThroughput ? "LP"
                                                              : "LP max-min") +
                       " / " + mode.name +
                       (mixed_deadlines ? " / 1 s and 8 s deadlines" : ""));
          const SimConfig sim = parking_config(w, mode);
          const ParkingRun parked = run_parking(w, trace, sim, lp, mode, true);
          const ParkingRun unparked =
              run_parking(w, trace, sim, lp, mode, false);
          expect_parked_matches(parked, unparked);
          // Each mode exercises what it names.
          if (mode.churn) {
            EXPECT_GT(parked.metrics.topology_changes, 0);
          }
          if (mode.faults) {
            EXPECT_GT(parked.metrics.faults_injected, 0);
          }
          if (mode.pace_and_rebalance) {
            EXPECT_GT(parked.metrics.pace_rounds, 0);
            EXPECT_GT(parked.metrics.onchain_deposited, 0);
          }
          EXPECT_EQ(parked.unplannable_plans, 0);
          EXPECT_EQ(parked.plans, parked.metrics.plans_requested);
          if (objective == LpObjective::kThroughput) {
            // The throughput LP zeroes pairs, so parking has work to do.
            EXPECT_GT(unparked.unplannable_plans, 0);
            EXPECT_LT(parked.metrics.plans_requested,
                      unparked.metrics.plans_requested);
          }
        }
      }
    }
  }
}

TEST(LpParking, StreamedSessionMatchesHandDrivenRun) {
  // SimSession's Spider (LP) parks the same payments as the hand-driven
  // simulator above.
  const ParkingWorkload w = parking_workload("isp");
  const ParkingMode mode{"streamed", /*streamed=*/true};
  const ParkingRun parked =
      run_parking(w, w.scenario.trace, parking_config(w, mode),
                  solved_lp(w, LpObjective::kThroughput), mode, true);
  const SpiderNetwork net(w.scenario.graph, w.scenario.config);
  SessionOptions options;
  options.demand_hint = &w.scenario.trace;
  SimSession session = net.session(Scheme::kSpiderLp, 7, options);
  std::vector<PaymentSpec> submitted;
  const TimePoint span = w.scenario.trace.back().arrival;
  for (const TimePoint horizon : {span / 4, span / 2, 3 * span / 4, span}) {
    const std::size_t from = submitted.size();
    submit_until(submitted, w.scenario.trace, horizon, &PaymentSpec::arrival);
    session.submit(submitted.data() + from, submitted.size() - from);
    (void)session.advance_until(horizon);
  }
  expect_identical_metrics(session.drain(), parked.metrics);
}

TEST(LpParking, RetryLimitRunsAreIdentical) {
  // Under a retry cap the sender gives up after counted attempts, so
  // nothing is parked and the two runs match field for field.
  for (const char* scenario : {"isp", "griefing"}) {
    SCOPED_TRACE(scenario);
    const ParkingWorkload w = parking_workload(scenario);
    const LpRouter lp = solved_lp(w, LpObjective::kThroughput);
    const std::vector<PaymentSpec> trace =
        with_parked_tail(w.scenario.trace, lp, w.scenario.graph);
    for (const ParkingMode& mode : kParkingModes) {
      SCOPED_TRACE(mode.name);
      SimConfig sim = parking_config(w, mode);
      sim.retry_limit = 2;
      const ParkingRun capped = run_parking(w, trace, sim, lp, mode, true);
      const ParkingRun reference =
          run_parking(w, trace, sim, lp, mode, false);
      expect_identical_metrics(capped.metrics, reference.metrics);
      EXPECT_EQ(capped.polls, reference.polls);
      EXPECT_EQ(capped.plans, reference.plans);
      EXPECT_GT(capped.unplannable_plans, 0);
    }
  }
}

// ---- Max-flow ----

TEST(MaxFlowRouterTest, UsesMultiplePathsWhereOneIsTooThin) {
  const Graph g = diamond(xrp(10));  // each direction holds 5
  Network net(g);
  MaxFlowRouter router;
  Rng rng(1);
  // 8 XRP > any single path (5) but max-flow 0->3 is 10.
  const auto plan = router.plan(make_payment(0, 3, xrp(8)), xrp(8), net, rng);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].amount + plan[1].amount, xrp(8));
}

TEST(MaxFlowRouterTest, FailsWhenMaxFlowInsufficient) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  MaxFlowRouter router;
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(0, 3, xrp(11)), xrp(11), net, rng).empty());
}

TEST(MaxFlowRouterTest, PlansAreJointlyLockable) {
  const Graph g = isp_topology(xrp(300));
  Network net(g);
  MaxFlowRouter router;
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 31));
    auto d = static_cast<NodeId>(rng.uniform_int(0, 31));
    if (d == s) d = (d + 1) % 32;
    const Amount amount = rng.uniform_int(1, xrp(400));
    const auto plan = router.plan(make_payment(s, d, amount), amount, net,
                                  rng);
    Amount total = 0;
    for (const auto& chunk : plan) {
      ASSERT_TRUE(net.can_send(*chunk.path, chunk.amount));
      net.lock_path(*chunk.path, chunk.amount);
      total += chunk.amount;
    }
    if (!plan.empty()) {
      EXPECT_EQ(total, amount);
    }
    for (const auto& chunk : plan) net.refund_path(*chunk.path, chunk.amount);
  }
}

// ---- SilentWhispers (landmarks) ----

TEST(RemoveWalkLoops, SplicesRepeats) {
  EXPECT_EQ(remove_walk_loops({0, 1, 2, 1, 3}),
            (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(remove_walk_loops({0, 1, 2}), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(remove_walk_loops({0, 1, 0}), (std::vector<NodeId>{0}));
}

TEST(LandmarkRouterTest, PicksTopDegreeLandmarks) {
  const Graph g = star_topology(6, xrp(10));
  Network net(g);
  LandmarkRouter router(1);
  router.init(net, RouterInitContext{});
  ASSERT_EQ(router.landmarks().size(), 1u);
  EXPECT_EQ(router.landmarks()[0], 0);  // the hub
}

TEST(LandmarkRouterTest, RoutesThroughLandmark) {
  const Graph g = star_topology(6, xrp(10));
  Network net(g);
  LandmarkRouter router(1);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan = router.plan(make_payment(1, 2, xrp(3)), xrp(3), net, rng);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].path->nodes, (std::vector<NodeId>{1, 0, 2}));
  EXPECT_EQ(plan[0].amount, xrp(3));
}

TEST(LandmarkRouterTest, AtomicFailureWhenShort) {
  const Graph g = star_topology(6, xrp(10));  // 5 per direction
  Network net(g);
  LandmarkRouter router(3);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(1, 2, xrp(9)), xrp(9), net, rng).empty());
}

TEST(LandmarkRouterTest, MultiLandmarkSplit) {
  const Graph g = diamond(xrp(10));
  Network net(g);
  LandmarkRouter router(2);  // top-degree: any two of the four (deg 2 each)
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 3, xrp(8)), xrp(8), net, rng);
  // Needs both 0-1-3 and 0-2-3 (5 each): possible only if the two landmark
  // paths are distinct; landmarks 0 and 1 give paths via loops spliced.
  Amount total = 0;
  for (const auto& chunk : plan) total += chunk.amount;
  if (!plan.empty()) {
    EXPECT_EQ(total, xrp(8));
  }
}

// ---- SpeedyMurmurs ----

TEST(SpeedyMurmursTest, ReachesDestinationOnTree) {
  const Graph g = grid_topology(4, 4, xrp(100));
  Network net(g);
  SpeedyMurmursRouter router(3, 7);
  router.init(net, RouterInitContext{});
  EXPECT_EQ(router.trees().size(), 3u);
  Rng rng(1);
  const auto plan =
      router.plan(make_payment(0, 15, xrp(6)), xrp(6), net, rng);
  ASSERT_FALSE(plan.empty());
  Amount total = 0;
  for (const auto& chunk : plan) {
    EXPECT_EQ(chunk.path->source(), 0);
    EXPECT_EQ(chunk.path->destination(), 15);
    EXPECT_TRUE(is_valid_trail(g, *chunk.path));
    total += chunk.amount;
  }
  EXPECT_EQ(total, xrp(6));
}

TEST(SpeedyMurmursTest, FailsWhenStuck) {
  // Line 0-1-2 where the middle hop is drained in the forward direction.
  const Graph g = line_topology(3, xrp(10));
  Network net(g);
  net.lock_path(make_path(g, {1, 2}), xrp(5));  // node 1 now has 0 forward
  SpeedyMurmursRouter router(2, 3);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  EXPECT_TRUE(
      router.plan(make_payment(0, 2, xrp(2)), xrp(2), net, rng).empty());
}

TEST(SpeedyMurmursTest, SplitsAcrossTrees) {
  const Graph g = complete_topology(8, xrp(100));
  Network net(g);
  SpeedyMurmursRouter router(4, 11);
  router.init(net, RouterInitContext{});
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 7, xrp(8)), xrp(8), net, rng);
  ASSERT_EQ(plan.size(), 4u);  // one split per tree
  for (const auto& chunk : plan) EXPECT_EQ(chunk.amount, xrp(2));
}

// ---- Primal-dual extension ----

TEST(PrimalDualRouterTest, WarmupThenRoutesCirculation) {
  const Graph g = line_topology(2, xrp(1000));
  Network net(g);
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 5.0);
  demands.add_demand(1, 0, 5.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  context.delta_seconds = 0.5;
  PrimalDualRouterConfig config;
  config.solver.alpha = 0.05;
  config.solver.kappa = 0.05;
  config.warmup_steps = 3000;
  PrimalDualRouter router(4, config);
  router.init(net, context);
  // Two ticks to open the token buckets.
  router.on_tick(net, seconds(0.0));
  router.on_tick(net, seconds(1.0));
  Rng rng(1);
  const auto plan = router.plan(make_payment(0, 1, xrp(2)), xrp(2), net, rng);
  ASSERT_FALSE(plan.empty());
  EXPECT_GT(plan[0].amount, 0);
}

TEST(PrimalDualRouterTest, TokensGateSending) {
  const Graph g = line_topology(2, xrp(1000));
  Network net(g);
  PaymentGraph demands(2);
  demands.add_demand(0, 1, 5.0);
  demands.add_demand(1, 0, 5.0);
  RouterInitContext context;
  context.demand_hint = &demands;
  PrimalDualRouterConfig config;
  config.warmup_steps = 2000;
  PrimalDualRouter router(4, config);
  router.init(net, context);
  Rng rng(1);
  // No tick yet: buckets are empty, nothing can be sent.
  EXPECT_TRUE(
      router.plan(make_payment(0, 1, xrp(5)), xrp(5), net, rng).empty());
}

}  // namespace
}  // namespace spider
