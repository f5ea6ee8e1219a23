// Tests for the discrete-event simulator: delivery mechanics, queueing,
// deadlines, atomicity, MTU capping, determinism, conservation.
#include <gtest/gtest.h>

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

/// Test double: routes everything over a fixed path, or refuses.
class ScriptedRouter final : public Router {
 public:
  explicit ScriptedRouter(Path path, bool atomic = false)
      : path_(std::move(path)), atomic_(atomic) {}

  std::string name() const override { return "Scripted"; }
  bool is_atomic() const override { return atomic_; }
  std::vector<ChunkPlan> plan(const Payment&, Amount amount, const Network& n,
                              Rng&) override {
    ++plan_calls;
    const Amount sendable = std::min(amount, n.path_bottleneck(path_));
    if (sendable <= 0) return {};
    return {ChunkPlan{&path_, sendable}};
  }

  int plan_calls = 0;

 private:
  Path path_;
  bool atomic_;
};

TEST(Simulator, SinglePaymentCompletesAfterDelta) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  SimConfig config;
  config.delta = seconds(0.5);
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(2))});
  EXPECT_EQ(m.attempted_count, 1);
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.delivered_volume, xrp(2));
  EXPECT_DOUBLE_EQ(m.success_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(m.success_volume(), 1.0);
  // Completion latency is exactly Δ.
  EXPECT_DOUBLE_EQ(m.completion_latency_s.mean(), 0.5);
  // Funds arrived at node 1.
  EXPECT_EQ(net.available(1, 0), xrp(7));
}

TEST(Simulator, FundsAreInflightDuringDelta) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  SimConfig config;
  config.delta = seconds(10.0);  // long hold
  config.default_deadline = seconds(100.0);
  Simulator sim(net, router, config);
  // Second payment arrives while the first is inflight: only 5-4 = 1 XRP is
  // spendable, and settled funds move downstream, never back — so the
  // second payment can deliver exactly that 1 XRP and must expire.
  const SimMetrics m = sim.run(
      {spec(1.0, 0, 1, xrp(4)), spec(2.0, 0, 1, xrp(2))});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.expired_count, 1);
  EXPECT_EQ(m.delivered_volume, xrp(5));  // everything node 0 ever had
  EXPECT_GE(m.chunks_sent, 2);
}

TEST(Simulator, NonAtomicPartialDeliveryCountsVolume) {
  const Graph g = line_topology(2, xrp(10));  // 5 XRP available 0->1
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  SimConfig config;
  config.default_deadline = seconds(2.0);  // expires before refill
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(8))});
  EXPECT_EQ(m.completed_count, 0);
  EXPECT_EQ(m.expired_count, 1);
  EXPECT_EQ(m.delivered_volume, xrp(5));  // partial delivery went through
  EXPECT_NEAR(m.success_volume(), 5.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.success_ratio(), 0.0);
}

TEST(Simulator, AtomicPaymentAllOrNothing) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}), /*atomic=*/true);
  Simulator sim(net, router, SimConfig{});
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(8))});
  EXPECT_EQ(m.completed_count, 0);
  EXPECT_EQ(m.rejected_count, 1);
  EXPECT_EQ(m.delivered_volume, 0);
  // Nothing stays locked.
  EXPECT_EQ(net.available(0, 0), xrp(5));
  net.check_invariants();
}

TEST(Simulator, AtomicPaymentWithinBalanceSucceeds) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}), /*atomic=*/true);
  Simulator sim(net, router, SimConfig{});
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(5))});
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.rejected_count, 0);
}

TEST(Simulator, QueuedPaymentRetriesAfterSettlement) {
  // 0->1 has 5; send 5 then 5 more: the second must wait until the first
  // settles... but settling moves funds to node 1, so the second can only
  // complete after funds return. Use a circulation to refill.
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter fwd(make_path(g, {0, 1}));
  SimConfig config;
  config.default_deadline = seconds(30.0);
  Simulator sim(net, fwd, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(5)),
                                spec(1.1, 0, 1, xrp(4))});
  // First takes the whole balance; second waits, and can never complete
  // (no reverse traffic), expiring with 0 delivered... actually after the
  // first settles, node 0 has 0. So second expires undelivered.
  EXPECT_EQ(m.completed_count, 1);
  EXPECT_EQ(m.expired_count, 1);
  EXPECT_GT(m.retry_rounds, 0);
}

TEST(Simulator, ReverseTrafficRestoresThroughput) {
  // Circulation traffic 0->1 and 1->0 keeps both directions usable — the
  // §5.1 insight in its smallest form.
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  WaterfillingRouter router(1);
  RouterInitContext context;
  router.init(net, context);
  SimConfig config;
  config.default_deadline = seconds(60.0);
  Simulator sim(net, router, config);
  std::vector<PaymentSpec> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(spec(1.0 + i, 0, 1, xrp(4)));
    trace.push_back(spec(1.5 + i, 1, 0, xrp(4)));
  }
  const SimMetrics m = sim.run(trace);
  EXPECT_EQ(m.completed_count, 40);  // every payment eventually completes
  net.check_invariants();
}

TEST(Simulator, MtuCapsChunkSizes) {
  const Graph g = line_topology(2, xrp(100));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  SimConfig config;
  config.mtu = xrp(10);
  config.default_deadline = seconds(60.0);
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 1, xrp(35))});
  EXPECT_EQ(m.completed_count, 1);
  // 35 XRP at MTU 10 needs at least 4 transaction units.
  EXPECT_GE(m.chunks_sent, 4);
}

TEST(Simulator, DeadlineZeroMeansConfigDefault) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  SimConfig config;
  config.default_deadline = seconds(3.0);
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  (void)sim.run({spec(1.0, 0, 1, xrp(50))});
  retired.expect_every_id_once(1);
  EXPECT_EQ(retired.records()[0].deadline, seconds(4.0));  // arrival + default
}

TEST(Simulator, PerPaymentDeadlineOverridesDefault) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  Simulator sim(net, router, SimConfig{});
  RetiredPayments retired;
  sim.attach(retired);
  (void)sim.run({spec(2.0, 0, 1, xrp(50), /*deadline_s=*/1.5)});
  retired.expect_every_id_once(1);
  EXPECT_EQ(retired.records()[0].deadline, seconds(3.5));
}

TEST(Simulator, UnroutablePaymentExpiresCleanly) {
  Graph g(3);
  g.add_edge(0, 1, xrp(10));  // node 2 is isolated
  g.add_edge(0, 1, xrp(10));
  Network net(g);
  ShortestPathRouter router;
  RouterInitContext context;
  router.init(net, context);
  SimConfig config;
  config.default_deadline = seconds(2.0);
  Simulator sim(net, router, config);
  const SimMetrics m = sim.run({spec(1.0, 0, 2, xrp(1))});
  EXPECT_EQ(m.expired_count, 1);
  EXPECT_EQ(m.delivered_volume, 0);
}

TEST(Simulator, ConservationHoldsThroughWholeRun) {
  const Graph g = isp_topology(xrp(1000));
  Network net(g);
  const Amount before = net.total_funds();
  WaterfillingRouter router(4);
  RouterInitContext context;
  router.init(net, context);
  SimConfig config;
  Simulator sim(net, router, config);
  RetiredPayments retired;
  sim.attach(retired);
  Rng rng(5);
  std::vector<PaymentSpec> trace;
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 31));
    auto d = static_cast<NodeId>(rng.uniform_int(0, 31));
    if (d == s) d = (d + 1) % 32;
    trace.push_back(spec(0.01 * i, s, d, rng.uniform_int(1, xrp(500))));
  }
  const SimMetrics m = sim.run(trace);
  EXPECT_EQ(net.total_funds(), before);
  net.check_invariants();
  EXPECT_EQ(m.attempted_count, 500);
  EXPECT_GT(m.completed_count, 0);
  // No payment may deliver more than its total.
  retired.expect_every_id_once(500);
  for (const Payment& p : retired.records()) {
    EXPECT_LE(p.delivered, p.total);
    EXPECT_EQ(p.inflight, 0);  // everything settled or refunded by the end
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Graph g = isp_topology(xrp(2000));
  auto run_once = [&]() {
    Network net(g);
    WaterfillingRouter router(4);
    RouterInitContext context;
    router.init(net, context);
    SimConfig config;
    config.seed = 7;
    Simulator sim(net, router, config);
    Rng rng(9);
    std::vector<PaymentSpec> trace;
    for (int i = 0; i < 300; ++i) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, 31));
      auto d = static_cast<NodeId>(rng.uniform_int(0, 31));
      if (d == s) d = (d + 1) % 32;
      trace.push_back(spec(0.02 * i, s, d, rng.uniform_int(1, xrp(800))));
    }
    return sim.run(trace);
  };
  const SimMetrics a = run_once();
  const SimMetrics b = run_once();
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
}

TEST(Simulator, EmptyTrace) {
  const Graph g = line_topology(2, xrp(10));
  Network net(g);
  ScriptedRouter router(make_path(g, {0, 1}));
  Simulator sim(net, router, SimConfig{});
  const SimMetrics m = sim.run({});
  EXPECT_EQ(m.attempted_count, 0);
  // Every ratio guards its zero denominator on a degenerate trace: no
  // division by zero, just 0.
  EXPECT_DOUBLE_EQ(m.success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.success_volume(), 0.0);
  EXPECT_DOUBLE_EQ(m.admitted_success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_xrp_per_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.fee_per_kilo_delivered(), 0.0);
}

TEST(Simulator, DegenerateMetricsNeverDivideByZero) {
  // A default-constructed SimMetrics (no run at all) takes every guarded
  // branch, including the admitted ratio with refusals subtracted.
  SimMetrics m;
  EXPECT_DOUBLE_EQ(m.success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.admitted_success_ratio(), 0.0);
  m.attempted_count = 3;
  m.admission_refused = 3;  // every attempt refused: admitted == 0
  EXPECT_DOUBLE_EQ(m.admitted_success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.success_volume(), 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_xrp_per_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.fee_per_kilo_delivered(), 0.0);
}

TEST(RunSimulation, ConvenienceDriverWorksEndToEnd) {
  const Graph g = isp_topology(xrp(5000));
  WaterfillingRouter router(4);
  Rng rng(3);
  std::vector<PaymentSpec> trace;
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 31));
    auto d = static_cast<NodeId>(rng.uniform_int(0, 31));
    if (d == s) d = (d + 1) % 32;
    trace.push_back(spec(0.05 * i, s, d, rng.uniform_int(1, xrp(300))));
  }
  const SimMetrics m = run_simulation(g, router, trace);
  EXPECT_EQ(m.attempted_count, 200);
  EXPECT_GT(m.success_ratio(), 0.3);
}

}  // namespace
}  // namespace spider
