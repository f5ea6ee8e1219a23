// Transport-layer gates (src/transport/): controller unit behaviour, the
// dense per-path table against an ordered-map reference, backpressure's
// reused plan scratch against fresh overlays, transport-off byte identity
// with the pre-transport engine, streamed == batch with the transport ON
// across both queue modes and both new schemes, AIMD convergence on a
// two-path dumbbell, and mark/ack ordering under fault-injected loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <span>

#include "spider.hpp"
#include "test_support.hpp"
#include "transport/backpressure_router.hpp"
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

// --- Dense controller table vs the ordered-map reference -----------------

/// The controller as it was kept before the dense table: one std::map from
/// path_hash (recomputed from the edges) to the same per-path state, with
/// the same admissible/send/ack/loss rules.
class ReferenceController {
 public:
  explicit ReferenceController(const TransportConfig& config)
      : config_(config) {}

  Amount admissible(const Path& path, TimePoint now) {
    State& s = state(path, now);
    const Amount window = s.window.window();
    const Amount headroom = window - s.inflight;
    if (headroom <= 0) return 0;
    const Duration rtt = s.rtt.rtt(config_.initial_rtt);
    return std::min(headroom, s.pacer.allowance(window, rtt, now));
  }
  void on_send(const Path& path, Amount amount, TimePoint now) {
    State& s = state(path, now);
    s.inflight += amount;
    total_inflight_ += amount;
    s.pacer.spend(amount);
  }
  void on_ack(const Path& path, Amount amount, bool marked, Duration rtt,
              TimePoint now) {
    State& s = state(path, now);
    s.inflight -= amount;
    total_inflight_ -= amount;
    s.delivered += amount;
    s.acks += 1;
    s.rtt.update(rtt);
    if (marked) {
      s.marked_acks += 1;
      s.window.on_negative(amount, config_);
    } else {
      s.window.on_positive(amount, config_);
    }
  }
  void on_loss(const Path& path, Amount amount, TimePoint now) {
    State& s = state(path, now);
    s.inflight -= amount;
    total_inflight_ -= amount;
    s.losses += 1;
    s.window.on_negative(amount, config_);
  }
  [[nodiscard]] Amount window_for(const Path& path) const {
    const auto it = states_.find(edge_sequence_hash(path.edges));
    return it == states_.end() ? config_.initial_window
                               : it->second.window.window();
  }
  [[nodiscard]] Amount total_inflight() const { return total_inflight_; }
  [[nodiscard]] std::vector<PathRateController::PathView> snapshot() const {
    std::vector<PathRateController::PathView> out;
    for (const auto& [key, s] : states_) {
      PathRateController::PathView v;
      v.key = key;
      v.hops = s.hops;
      v.window = s.window.window();
      v.inflight = s.inflight;
      const double rtt_s = to_seconds(s.rtt.rtt(config_.initial_rtt));
      v.rate_xrp_per_s = rtt_s > 0.0 ? to_xrp(v.window) / rtt_s : 0.0;
      v.delivered = s.delivered;
      v.acks = s.acks;
      v.marked_acks = s.marked_acks;
      v.losses = s.losses;
      out.push_back(v);
    }
    return out;
  }

 private:
  struct State {
    State(const TransportConfig& config, std::size_t path_hops, TimePoint now)
        : window(config.initial_window),
          pacer(config.initial_window, now),
          hops(path_hops) {}
    AimdController window;
    TokenPacer pacer;
    RttEstimator rtt;
    Amount inflight = 0;
    Amount delivered = 0;
    std::int64_t acks = 0;
    std::int64_t marked_acks = 0;
    std::int64_t losses = 0;
    std::size_t hops = 0;
  };
  State& state(const Path& path, TimePoint now) {
    return states_
        .try_emplace(edge_sequence_hash(path.edges), config_, path.length(),
                     now)
        .first->second;
  }

  TransportConfig config_;
  std::map<std::uint64_t, State> states_;
  Amount total_inflight_ = 0;
};

void expect_same_views(const std::vector<PathRateController::PathView>& a,
                       const std::vector<PathRateController::PathView>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].hops, b[i].hops);
    EXPECT_EQ(a[i].window, b[i].window);
    EXPECT_EQ(a[i].inflight, b[i].inflight);
    EXPECT_EQ(a[i].rate_xrp_per_s, b[i].rate_xrp_per_s);
    EXPECT_EQ(a[i].delivered, b[i].delivered);
    EXPECT_EQ(a[i].acks, b[i].acks);
    EXPECT_EQ(a[i].marked_acks, b[i].marked_acks);
    EXPECT_EQ(a[i].losses, b[i].losses);
  }
}

TEST(Transport, DenseControllerMatchesOrderedMapReference) {
  // Stamped store paths plus unstamped copies of the same paths (which
  // must land on the same state), many more of them than the size hint,
  // so the index grows several times mid-sequence.
  const Graph graph = ripple_like_topology(70, xrp(100));
  PathCache store(graph, 4, PathSelection::kEdgeDisjoint);
  Rng rng(21);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 120; ++i)
    pairs.emplace_back(static_cast<NodeId>(rng.uniform_int(0, 69)),
                       static_cast<NodeId>(rng.uniform_int(0, 69)));
  store.warm(pairs, 2);
  std::vector<Path> paths;
  for (const auto& [src, dst] : pairs)
    for (const Path& stored : store.cached(src, dst)) {
      paths.push_back(stored);
      Path plain = stored;
      plain.key = 0;
      paths.push_back(std::move(plain));
    }
  ASSERT_GT(paths.size(), 300u);

  TransportConfig config;
  config.initial_window = xrp(20);
  PathRateController dense(config);
  dense.reserve(12);
  ReferenceController reference(config);

  struct Outstanding {
    std::size_t path;
    Amount amount;
    TimePoint sent_at;
  };
  std::vector<Outstanding> outstanding;
  TimePoint now = 0;
  for (int step = 0; step < 20000; ++step) {
    now += milliseconds(rng.uniform_int(0, 40));
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1));
    const Path& path = paths[pick];
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 4) {
      const Amount allowed = dense.admissible(path, now);
      ASSERT_EQ(allowed, reference.admissible(path, now)) << step;
      if (allowed > 0 && op < 3) {
        const Amount amount = 1 + rng.uniform_int(0, allowed - 1);
        dense.on_send(path, amount, now);
        reference.on_send(path, amount, now);
        outstanding.push_back({pick, amount, now});
      }
    } else if (!outstanding.empty() && op < 9) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(outstanding.size()) - 1));
      const Outstanding unit = outstanding[at];
      outstanding[at] = outstanding.back();
      outstanding.pop_back();
      const Path& sent = paths[unit.path];
      if (op < 8) {
        const bool marked = rng.uniform_int(0, 3) == 0;
        dense.on_ack(sent, unit.amount, marked, now - unit.sent_at, now);
        reference.on_ack(sent, unit.amount, marked, now - unit.sent_at, now);
      } else {
        dense.on_loss(sent, unit.amount, now);
        reference.on_loss(sent, unit.amount, now);
      }
    }
    ASSERT_EQ(dense.total_inflight(), reference.total_inflight()) << step;
    ASSERT_EQ(dense.window_for(path), reference.window_for(path)) << step;
    if (step % 2500 == 0)
      expect_same_views(dense.snapshot(), reference.snapshot());
  }
  expect_same_views(dense.snapshot(), reference.snapshot());
  EXPECT_GT(dense.num_paths(), 12u * 8);
  // A path never offered reads the initial window.
  Graph other(3);
  other.add_edge(0, 1, xrp(1));
  other.add_edge(1, 2, xrp(1));
  const Path unseen = make_path(other, {0, 1, 2});
  EXPECT_EQ(dense.window_for(unseen), reference.window_for(unseen));
}

/// The greedy release as it was before the caller-owned scratch: fresh
/// first-hop and balance overlays on every plan.
std::vector<ChunkPlan> reference_greedy(std::span<const Path> paths,
                                        std::span<const std::size_t> order,
                                        Amount amount, const Network& network,
                                        bool first_hop_only) {
  struct FirstHopUse {
    EdgeId edge;
    int side;
    Amount used;
  };
  std::vector<FirstHopUse> first_hops;
  VirtualBalances balances(network);
  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  for (std::size_t i = 0; i < order.size() && left > 0; ++i) {
    const Path& p = paths[order[i]];
    Amount sendable = 0;
    if (first_hop_only) {
      const EdgeId e = p.edges.front();
      const Channel& ch = network.channel(e);
      const int side = ch.side_of(p.nodes.front());
      Amount avail = ch.balance(side);
      for (const FirstHopUse& u : first_hops)
        if (u.edge == e && u.side == side) avail -= u.used;
      sendable = std::min(left, avail);
      if (sendable <= 0) continue;
      first_hops.push_back({e, side, sendable});
    } else {
      sendable = std::min(left, balances.path_bottleneck(p));
      if (sendable <= 0) continue;
      balances.use(p, sendable);
    }
    chunks.push_back(ChunkPlan{&p, sendable});
    left -= sendable;
  }
  return chunks;
}

TEST(Transport, BackpressurePlansMatchFreshScratchReference) {
  // Backpressure shares plan_greedy with spider-dctcp: plans from the
  // router's reused scratch equal a fresh-overlay greedy over the same
  // backlog order, in both queue modes, on drained and backlogged channels.
  const Graph graph = ripple_like_topology(60, xrp(40));
  Network network(graph);
  Rng rng(5);
  for (EdgeId e = 0; e < graph.num_edges(); e += 3) {
    const int side = static_cast<int>(rng.uniform_int(0, 1));
    network.lock_one(e, side, network.channel(e).balance(side) / 2);
  }
  RouterQueueBank bank;
  bank.begin(static_cast<std::size_t>(graph.num_edges()), milliseconds(40));
  for (EdgeId e = 0; e < graph.num_edges(); e += 2)
    bank.on_enqueue(static_cast<std::size_t>(e),
                    static_cast<int>(rng.uniform_int(0, 1)),
                    xrp(rng.uniform_int(1, 30)));
  PathCache store(graph, 4, PathSelection::kEdgeDisjoint);
  for (const bool router_queues : {false, true}) {
    SCOPED_TRACE(router_queues ? "router" : "source");
    BackpressureRouter router(4);
    router.init(network, RouterInitContext{});
    router.bind_transport(router_queues ? &bank : nullptr);
    std::int64_t planned = 0;
    for (int i = 0; i < 400; ++i) {
      Payment payment;
      payment.src = static_cast<NodeId>(rng.uniform_int(0, 59));
      payment.dst = static_cast<NodeId>(rng.uniform_int(0, 59));
      if (payment.src == payment.dst) continue;
      const Amount amount = xrp(rng.uniform_int(1, 120));
      const std::vector<ChunkPlan> got =
          router.plan(payment, amount, network, rng);
      const std::span<const Path> paths = store.paths(payment.src, payment.dst);
      std::vector<std::size_t> order(paths.size());
      std::iota(order.begin(), order.end(), 0);
      std::vector<Amount> backlog(paths.size());
      for (std::size_t p = 0; p < paths.size(); ++p)
        backlog[p] = router.path_backlog(paths[p], network);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return backlog[a] < backlog[b];
                       });
      const std::vector<ChunkPlan> want =
          reference_greedy(paths, order, amount, network, router_queues);
      ASSERT_EQ(got.size(), want.size()) << i;
      for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(*got[c].path, *want[c].path) << i;
        EXPECT_EQ(got[c].amount, want[c].amount) << i;
      }
      planned += static_cast<std::int64_t>(got.size());
    }
    EXPECT_GT(planned, 100);
  }
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
