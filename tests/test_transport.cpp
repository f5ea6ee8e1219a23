// Transport-layer gates (src/transport/): controller unit behaviour,
// transport-off byte identity with the pre-transport engine, streamed ==
// batch with the transport ON across both queue modes and both new schemes,
// AIMD convergence on a two-path dumbbell, and mark/ack ordering under
// fault-injected loss.
#include <gtest/gtest.h>

#include <algorithm>

#include "spider.hpp"
#include "test_support.hpp"
#include "transport/dctcp_router.hpp"
#include "transport/rate_controller.hpp"
#include "transport/router_queue.hpp"

namespace spider {
namespace {

ScenarioInstance small_isp(int payments = 600) {
  ScenarioParams params;
  params.payments = payments;
  params.traffic_seed = 33;
  return build_scenario("isp", params);
}

/// The streaming pattern of test_session.cpp: three arrival-ordered spans
/// with mid-run stepping in between.
SimMetrics run_streamed(const SpiderNetwork& net, Scheme scheme,
                        const std::vector<PaymentSpec>& trace,
                        std::uint64_t seed) {
  SessionOptions options;
  options.demand_hint = &trace;
  SimSession session = net.session(scheme, seed, options);
  const std::size_t third = trace.size() / 3;
  session.submit(trace.data(), third);
  session.submit(trace.data() + third, third);
  session.advance_until(trace[third].arrival);
  session.submit(trace.data() + 2 * third, trace.size() - 2 * third);
  return session.drain();
}

// --- Controller units ---------------------------------------------------

TEST(Transport, AimdWindowMoves) {
  TransportConfig config;
  AimdController w(config.initial_window);
  const Amount start = w.window();
  w.on_positive(xrp(50), config);
  EXPECT_GT(w.window(), start);
  w.on_negative(xrp(50), config);
  EXPECT_LT(w.window(), start + xrp(50));
  for (int i = 0; i < 100; ++i) w.on_negative(config.initial_window, config);
  EXPECT_EQ(w.window(), config.min_window);
}

TEST(Transport, AimdFullyMarkedWindowScalesByBeta) {
  TransportConfig config;
  config.beta_ppm = 500'000;
  AimdController w(xrp(100));
  w.on_negative(xrp(100), config);  // a whole window's worth of marks
  EXPECT_EQ(w.window(), xrp(50));
}

TEST(Transport, TokenPacerRefillsAtWindowPerRtt) {
  const Amount window = xrp(100);
  const Duration rtt = seconds(1.0);
  TokenPacer pacer(window, 0);
  EXPECT_EQ(pacer.allowance(window, rtt, 0), window);  // starts full
  pacer.spend(window);
  EXPECT_EQ(pacer.allowance(window, rtt, 0), 0);
  // Half an RTT refills half a window; a full idle RTT caps at one window.
  EXPECT_EQ(pacer.allowance(window, rtt, seconds(0.5)), window / 2);
  EXPECT_EQ(pacer.allowance(window, rtt, seconds(10.0)), window);
}

TEST(Transport, RttEstimatorEwma) {
  RttEstimator est;
  EXPECT_EQ(est.rtt(seconds(1.0)), seconds(1.0));  // fallback before acks
  est.update(seconds(2.0));
  EXPECT_EQ(est.rtt(seconds(1.0)), seconds(2.0));  // first sample adopted
  est.update(seconds(4.0));
  EXPECT_GT(est.rtt(0), seconds(2.0));  // 7/8 smoothing toward the sample
  EXPECT_LT(est.rtt(0), seconds(4.0));
  est.update(0);  // ignored
  EXPECT_GT(est.rtt(0), seconds(2.0));
}

TEST(Transport, PathControllerTracksInflightAndWindows) {
  TransportConfig config;
  PathRateController controller(config);
  Graph g(3);
  g.add_edge(0, 1, xrp(1000));
  g.add_edge(1, 2, xrp(1000));
  const Path path = make_path(g, {0, 1, 2});

  const Amount first = controller.admissible(path, 0);
  EXPECT_EQ(first, config.initial_window);
  controller.on_send(path, xrp(50), 0);
  EXPECT_EQ(controller.total_inflight(), xrp(50));
  EXPECT_EQ(controller.admissible(path, 0), config.initial_window - xrp(50));

  controller.on_ack(path, xrp(50), /*marked=*/false, seconds(0.2), seconds(0.2));
  EXPECT_EQ(controller.total_inflight(), 0);
  EXPECT_GT(controller.window_for(path), config.initial_window);

  controller.on_send(path, xrp(30), seconds(0.2));
  controller.on_loss(path, xrp(30), seconds(0.3));
  EXPECT_EQ(controller.total_inflight(), 0);

  const auto views = controller.snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].acks, 1);
  EXPECT_EQ(views[0].losses, 1);
  EXPECT_EQ(views[0].delivered, xrp(50));
  EXPECT_EQ(views[0].hops, 2u);
  EXPECT_GT(views[0].rate_xrp_per_s, 0.0);
}

// --- Transport off: byte-identical to the pre-transport engine ----------

TEST(Transport, DisabledTransportIsInert) {
  const ScenarioInstance scenario = small_isp();
  for (const QueueingMode mode :
       {QueueingMode::kSourceQueue, QueueingMode::kRouterQueue}) {
    SCOPED_TRACE(mode == QueueingMode::kSourceQueue ? "source" : "router");
    SpiderConfig baseline = scenario.config;
    baseline.sim.queueing = mode;
    // Same run with every transport knob moved but enabled=false: the
    // transport must schedule nothing and touch nothing.
    SpiderConfig knobs = baseline;
    knobs.sim.transport.mark_threshold = milliseconds(1);
    knobs.sim.transport.pace_interval = milliseconds(5);
    knobs.sim.transport.initial_window = xrp(17);
    knobs.sim.transport.min_window = xrp(1);
    knobs.sim.transport.beta_ppm = 900'000;
    const SimMetrics a = SpiderNetwork(scenario.graph, baseline)
                             .run(Scheme::kSpiderWaterfilling, scenario.trace);
    const SimMetrics b = SpiderNetwork(scenario.graph, knobs)
                             .run(Scheme::kSpiderWaterfilling, scenario.trace);
    expect_identical_metrics(a, b);
    EXPECT_EQ(a.chunks_marked, 0);
    EXPECT_EQ(a.pace_rounds, 0);
  }
}

// --- Transport on: the engine-identity contracts still hold -------------

TEST(Transport, StreamedMatchesBatchWithTransportOn) {
  ScenarioInstance scenario = small_isp();
  scenario.config.sim.transport.enabled = true;
  for (const QueueingMode mode :
       {QueueingMode::kSourceQueue, QueueingMode::kRouterQueue}) {
    scenario.config.sim.queueing = mode;
    for (const Scheme scheme :
         {Scheme::kSpiderWaterfilling, Scheme::kSpiderDctcp,
          Scheme::kBackpressure}) {
      SCOPED_TRACE(scheme_name(scheme) +
                   std::string(mode == QueueingMode::kSourceQueue
                                   ? "/source"
                                   : "/router"));
      const SpiderNetwork net(scenario.graph, scenario.config);
      const SimMetrics batch = net.run(scheme, scenario.trace, 7);
      const SimMetrics streamed =
          run_streamed(net, scheme, scenario.trace, 7);
      expect_identical_metrics(batch, streamed);
    }
  }
}

// --- End-to-end behaviour of the new schemes ----------------------------

TEST(Transport, DctcpAutoEnablesTransportAndRouterQueues) {
  const ScenarioInstance scenario = small_isp();
  // Default config (transport off, source queues): the session applies the
  // scheme's transport defaults, so the run must equal an explicit
  // transport-on router-queue configuration.
  const SimMetrics defaulted = SpiderNetwork(scenario.graph, scenario.config)
                                   .run(Scheme::kSpiderDctcp, scenario.trace);
  SpiderConfig explicit_config = scenario.config;
  explicit_config.sim.transport.enabled = true;
  explicit_config.sim.queueing = QueueingMode::kRouterQueue;
  const SimMetrics configured =
      SpiderNetwork(scenario.graph, explicit_config)
          .run(Scheme::kSpiderDctcp, scenario.trace);
  expect_identical_metrics(defaulted, configured);
  EXPECT_GT(defaulted.completed_count, 0);
}

TEST(Transport, DctcpMarksAndPacesUnderCongestion) {
  // Small channels force deep router queues: dequeue waits cross the
  // marking threshold and the pending queue stays busy between polls, so
  // both transport counters must move and the p99 must be populated.
  ScenarioParams params;
  params.payments = 800;
  params.traffic_seed = 33;
  params.capacity_xrp = 250;
  const ScenarioInstance scenario = build_scenario("isp", params);
  const SimMetrics m = SpiderNetwork(scenario.graph, scenario.config)
                           .run(Scheme::kSpiderDctcp, scenario.trace);
  EXPECT_GT(m.completed_count, 0);
  EXPECT_GT(m.chunks_queued, 0);
  EXPECT_GT(m.chunks_marked, 0);
  EXPECT_GT(m.pace_rounds, 0);
  EXPECT_GT(m.served_queue_delay_p99_s(), 0.0);
  EXPECT_GE(static_cast<double>(m.served_queue_wait_us.max()) / 1e6,
            m.served_queue_delay_p99_s());
}

TEST(Transport, BackpressurePlansInBothModes) {
  const ScenarioInstance scenario = small_isp();
  for (const QueueingMode mode :
       {QueueingMode::kSourceQueue, QueueingMode::kRouterQueue}) {
    SCOPED_TRACE(mode == QueueingMode::kSourceQueue ? "source" : "router");
    SpiderConfig config = scenario.config;
    config.sim.queueing = mode;
    const SpiderNetwork net(scenario.graph, config);
    const SimMetrics a = net.run(Scheme::kBackpressure, scenario.trace, 7);
    EXPECT_GT(a.completed_count, 0);
    // Rerun determinism.
    const SimMetrics b = net.run(Scheme::kBackpressure, scenario.trace, 7);
    expect_identical_metrics(a, b);
  }
}

// --- AIMD convergence on a two-path dumbbell ----------------------------

TEST(Transport, AimdConvergesTowardCapacitySplitOnDumbbell) {
  // s --a-- d all-wide, s --b-- d with a wide feeder into a NARROW final
  // hop. The bottleneck must sit downstream of the first hop: the sender
  // clamps releases at its own channel, so chunks pour through the wide
  // feeder and pile up at router b waiting for b-d funds. Those waits
  // cross the marking threshold, multiplicative decrease pins the narrow
  // path's window near the floor while the wide path's window additively
  // grows — the fluid-limit split (wide >> narrow) within a loose
  // tolerance.
  Graph g(4);
  g.add_edge(0, 1, xrp(40000));  // s - a (wide)
  g.add_edge(1, 3, xrp(40000));  // a - d (wide)
  g.add_edge(0, 2, xrp(40000));  // s - b (wide feeder)
  g.add_edge(2, 3, xrp(400));    // b - d (narrow bottleneck)

  // Bidirectional traffic keeps value circulating so the wide path never
  // starves for refills; per-payment value above the initial window forces
  // spill onto the narrow path every attempt.
  std::vector<PaymentSpec> trace;
  for (int i = 0; i < 600; ++i) {
    PaymentSpec spec;
    spec.arrival = milliseconds(20) * i;
    spec.src = i % 2 == 0 ? 0 : 3;
    spec.dst = i % 2 == 0 ? 3 : 0;
    spec.amount = xrp(150);
    trace.push_back(spec);
  }

  SpiderConfig config;
  SimSession session(g, config, Scheme::kSpiderDctcp, SessionOptions{},
                     nullptr);
  session.submit(trace);
  const SimMetrics m = session.drain();
  EXPECT_GT(m.completed_count, 0);
  EXPECT_GT(m.chunks_marked, 0);

  const auto* router =
      dynamic_cast<const SpiderDctcpRouter*>(&session.router());
  ASSERT_NE(router, nullptr);
  const Amount wide = router->controller().window_for(make_path(g, {0, 1, 3}));
  const Amount narrow =
      router->controller().window_for(make_path(g, {0, 2, 3}));
  EXPECT_GT(wide, narrow);
  // Loose fluid-split tolerance: a 100x capacity gap must open at least a
  // 2x window gap once the controller converges.
  EXPECT_GE(wide, 2 * narrow);
  // Both directions of both paths were exercised.
  EXPECT_GE(router->controller().num_paths(), 2u);
  // Everything sent was acked or lost — no in-flight value leaked.
  EXPECT_EQ(router->controller().total_inflight(), 0);
}

// --- Mark/ack ordering under fault-injected loss ------------------------

TEST(Transport, MarkAckOrderingUnderInjectedLoss) {
  const ScenarioInstance scenario = small_isp(500);
  // Bernoulli drops on the three busiest channels for the middle of the
  // run: lost chunks must reach the controller as losses (never acks), and
  // the whole interleaving must stay deterministic.
  std::vector<FaultEvent> faults;
  const TimePoint span = scenario.trace.back().arrival;
  for (EdgeId e = 0; e < 3; ++e)
    faults.push_back(FaultEvent::loss(span / 4 + e, e, 0.3));
  for (EdgeId e = 0; e < 3; ++e)
    faults.push_back(FaultEvent::loss(3 * span / 4 + e, e, 0.0));
  std::sort(faults.begin(), faults.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });

  SpiderConfig config = scenario.config;
  config.sim.transport.enabled = true;
  config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork net(scenario.graph, config);
  const SimMetrics a =
      net.run(Scheme::kSpiderDctcp, scenario.trace, 7, {}, faults);
  const SimMetrics b =
      net.run(Scheme::kSpiderDctcp, scenario.trace, 7, {}, faults);
  expect_identical_metrics(a, b);
  EXPECT_GT(a.messages_dropped, 0);
  EXPECT_GT(a.chunks_faulted, 0);
  EXPECT_GT(a.completed_count, 0);

  // Session view: after the drain the controller holds no in-flight value
  // (every on_send was matched by exactly one on_ack or on_loss) and it
  // recorded both kinds of feedback. Same seed as the batch runs above —
  // the direct constructor reads config.sim.seed.
  SpiderConfig session_config = config;
  session_config.sim.seed = 7;
  SimSession session(scenario.graph, session_config, Scheme::kSpiderDctcp,
                     SessionOptions{}, nullptr);
  session.submit_faults(faults);
  session.submit(scenario.trace);
  const SimMetrics streamed = session.drain();
  expect_identical_metrics(a, streamed);
  const auto* router =
      dynamic_cast<const SpiderDctcpRouter*>(&session.router());
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(router->controller().total_inflight(), 0);
  std::int64_t acks = 0;
  std::int64_t losses = 0;
  for (const auto& view : router->controller().snapshot()) {
    acks += view.acks;
    losses += view.losses;
  }
  EXPECT_GT(acks, 0);
  EXPECT_GT(losses, 0);
}

// --- QueueDepthProbe rides the real router queues -----------------------

TEST(Transport, QueueDepthProbeSeesRealRouterQueues) {
  ScenarioParams params;
  params.payments = 600;
  params.traffic_seed = 33;
  params.capacity_xrp = 250;  // congested: queues actually fill
  const ScenarioInstance scenario = build_scenario("isp", params);
  SpiderConfig config = scenario.config;
  config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork net(scenario.graph, config);

  QueueDepthProbe probe;
  SimSession session = net.session(Scheme::kSpiderWaterfilling, 7);
  session.attach(probe);
  session.submit(scenario.trace);
  const SimMetrics m = session.drain();

  ASSERT_GT(m.chunks_queued, 0);
  EXPECT_FALSE(probe.channel_series().empty());
  EXPECT_EQ(probe.channel_series().size(),
            static_cast<std::size_t>(probe.channel_value_xrp().count()));
  EXPECT_GT(probe.channel_value_xrp().max(), 0.0);
  EXPECT_GT(probe.channel_chunks().max(), 0.0);
  ASSERT_FALSE(probe.high_water().empty());
  for (const QueueDepthProbe::HighWater& hw : probe.high_water()) {
    EXPECT_GT(hw.value_xrp, 0.0);
    EXPECT_GT(hw.chunks, 0u);
    EXPECT_LT(hw.edge, static_cast<std::size_t>(scenario.graph.num_edges()));
  }
  // The old pending-payment series still works alongside.
  EXPECT_FALSE(probe.series().empty());

  // Source-queue mode never fires the bank hook.
  SpiderConfig source = scenario.config;
  source.sim.queueing = QueueingMode::kSourceQueue;
  QueueDepthProbe source_probe;
  SimSession source_session =
      SpiderNetwork(scenario.graph, source).session(
          Scheme::kSpiderWaterfilling, 7);
  source_session.attach(source_probe);
  source_session.submit(scenario.trace);
  (void)source_session.drain();
  EXPECT_TRUE(source_probe.channel_series().empty());
  EXPECT_TRUE(source_probe.high_water().empty());
  EXPECT_FALSE(source_probe.series().empty());
}

}  // namespace
}  // namespace spider
