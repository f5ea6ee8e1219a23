// Dynamic-topology tests: determinism of churn-interleaved runs across
// every scheme and both queueing modes, byte-identity of zero-churn runs
// with the pre-churn engine, conservation-checked escrow return across a
// close with chunks in flight, generation-aware candidate-path deltas vs a
// cold cache, churn schedule validity, and the mutable-network generation
// bump.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "spider.hpp"
#include "test_support.hpp"

namespace spider {
namespace {

/// Field-by-field equality of two SimMetrics (the test_session.cpp
/// discipline) plus the churn counters this PR adds.
void expect_identical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.attempted_count, b.attempted_count);
  EXPECT_EQ(a.attempted_volume, b.attempted_volume);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.completed_volume, b.completed_volume);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.expired_count, b.expired_count);
  EXPECT_EQ(a.rejected_count, b.rejected_count);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.retry_rounds, b.retry_rounds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.plans_requested, b.plans_requested);
  EXPECT_EQ(a.chunks_queued, b.chunks_queued);
  EXPECT_EQ(a.queue_timeouts, b.queue_timeouts);
  EXPECT_EQ(a.onchain_deposited, b.onchain_deposited);
  EXPECT_EQ(a.topology_changes, b.topology_changes);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_closed, b.channels_closed);
  EXPECT_EQ(a.chunks_churned, b.chunks_churned);
  EXPECT_EQ(a.escrow_returned, b.escrow_returned);
  EXPECT_EQ(a.completion_latency_s.count(), b.completion_latency_s.count());
  EXPECT_DOUBLE_EQ(a.completion_latency_s.sum(),
                   b.completion_latency_s.sum());
  EXPECT_EQ(a.chunk_hops.count(), b.chunk_hops.count());
  EXPECT_DOUBLE_EQ(a.chunk_hops.mean(), b.chunk_hops.mean());
  EXPECT_DOUBLE_EQ(a.final_mean_imbalance_xrp, b.final_mean_imbalance_xrp);
  EXPECT_DOUBLE_EQ(a.sim_duration_s, b.sim_duration_s);
}

ScenarioInstance small_churny_isp() {
  ScenarioParams params;
  params.payments = 500;
  params.traffic_seed = 44;
  ScenarioInstance scenario = build_scenario("isp", params);
  // A hand-armed uniform churn over the trace span: closes and opens
  // interleaved with payments on the paper's ISP topology.
  ChurnConfig churn;
  churn.mode = ChurnMode::kUniform;
  churn.events_per_second = 20.0;  // dense interleave over the short trace
  churn.start = seconds(0.2);
  churn.stop = scenario.trace.back().arrival;
  churn.seed = 5;
  scenario.churn = ChurnSchedule(scenario.graph, churn).generate();
  return scenario;
}

// --- Graph / Network surface ------------------------------------------

TEST(DynamicTopology, GraphCloseRetiresEdgeFromAdjacency) {
  Graph g = ring_topology(4, xrp(10));
  const EdgeId e = *g.find_edge(0, 1);
  EXPECT_EQ(g.closed_edge_count(), 0);
  g.close_edge(e);
  EXPECT_TRUE(g.edge_closed(e));
  EXPECT_EQ(g.closed_edge_count(), 1);
  EXPECT_EQ(g.open_edge_count(), 3);
  EXPECT_FALSE(g.find_edge(0, 1).has_value());
  for (const Graph::Adjacency& adj : g.neighbors(0)) EXPECT_NE(adj.edge, e);
  // Endpoint lookups survive for settle/refund bookkeeping.
  EXPECT_EQ(g.other_end(e, 0), 1);
  // Total capacity excludes the closed channel.
  EXPECT_EQ(g.total_capacity(), 3 * xrp(10));
  // A second close of the same edge is a financial error.
  EXPECT_THROW(g.close_edge(e), AssertionError);
}

TEST(DynamicTopology, NetworkTopologySurfaceBumpsGeneration) {
  const Graph g = ring_topology(5, xrp(100));
  Network net(g);
  EXPECT_EQ(net.topology_generation(), 0u);

  const EdgeId opened = net.open_channel(0, 2, xrp(50));
  EXPECT_EQ(net.topology_generation(), 1u);
  EXPECT_EQ(opened, g.num_edges());  // append-only ids
  EXPECT_EQ(net.num_channels(), static_cast<std::size_t>(g.num_edges()) + 1);
  EXPECT_EQ(net.channel(opened).capacity(), xrp(50));

  net.deposit_channel(opened, 0, xrp(5));
  EXPECT_EQ(net.topology_generation(), 2u);
  EXPECT_EQ(net.channel(opened).capacity(), xrp(55));

  const Amount before = net.total_funds();
  const Amount swept = net.close_channel(opened);
  EXPECT_EQ(net.topology_generation(), 3u);
  EXPECT_EQ(swept, xrp(55));
  EXPECT_EQ(net.escrow_returned(), xrp(55));
  EXPECT_EQ(net.total_funds() + net.escrow_returned(), before);
  EXPECT_TRUE(net.graph().edge_closed(opened));
  EXPECT_FALSE(net.channel(opened).can_lock(0, 1));
  // The original shared topology never felt any of this.
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.closed_edge_count(), 0);
}

TEST(DynamicTopology, NetworkRejectsZeroCapacityChannel) {
  const Graph g = ring_topology(4, xrp(10));
  Network net(g);
  EXPECT_THROW(net.open_channel(0, 2, 0), AssertionError);
}

TEST(DynamicTopology, GeneratorsRejectZeroCapacity) {
  EXPECT_THROW(line_topology(3, 0), AssertionError);
  EXPECT_THROW(star_topology(4, 0), AssertionError);
  Rng rng(1);
  EXPECT_THROW(barabasi_albert_topology(10, 2, 0, rng), AssertionError);
}

// --- Escrow conservation across a close with chunks in flight ---------

TEST(DynamicTopology, EscrowConservedAcrossCloseWithChunksInFlight) {
  // 0-1-2 line; a payment locks funds on both hops at t=0.1 and would
  // settle at t=0.6 (Δ=0.5). Channel 1 (hop 1-2) closes at t=0.3 — inside
  // the settlement window — so the chunk must fail, refund hop 0, and the
  // closing channel's full escrow must come back on-chain.
  const Graph g = line_topology(3, xrp(10));
  const SpiderNetwork net(g, SpiderConfig{});
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = seconds(0.1);
  trace[0].src = 0;
  trace[0].dst = 2;
  trace[0].amount = xrp(4);
  trace[0].deadline = seconds(3.0);

  SimSession session = net.session(Scheme::kShortestPath, 1);
  session.submit_topology(TopologyChange::close(seconds(0.3), 1));
  session.submit(trace);
  const Amount initial = session.network().total_funds();

  const SimMetrics m = session.drain();
  const Network& network = std::as_const(session).network();
  EXPECT_EQ(m.channels_closed, 1);
  EXPECT_EQ(m.chunks_churned, 1);
  EXPECT_EQ(m.completed_count, 0);
  // The closing channel's whole 10 XRP escrow returned on-chain (its
  // in-flight 4 XRP refunded first), and nothing was minted or destroyed.
  EXPECT_EQ(m.escrow_returned, xrp(10));
  EXPECT_EQ(network.escrow_returned(), xrp(10));
  EXPECT_EQ(network.total_funds() + network.escrow_returned(), initial);
  // The refunded sender side of hop 0 holds its full balance again.
  EXPECT_EQ(network.channel(0).balance(0), xrp(5));
  network.check_invariants();
}

TEST(DynamicTopology, AtomicPaymentFailsWhollyWhenAChunkIsChurned) {
  // Diamond 0-1-3 / 0-2-3 with a direct 0-3 shortcut of small capacity:
  // SpeedyMurmurs splits across trees; closing one used channel mid-flight
  // must roll back the payment's OTHER chunks too (atomicity) and the
  // payment ends rejected, not half-delivered.
  Graph g(4);
  g.add_edge(0, 1, xrp(50));  // e0
  g.add_edge(1, 3, xrp(50));  // e1
  g.add_edge(0, 2, xrp(50));  // e2
  g.add_edge(2, 3, xrp(50));  // e3
  const SpiderNetwork net(g, SpiderConfig{});
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = seconds(0.1);
  trace[0].src = 0;
  trace[0].dst = 3;
  trace[0].amount = xrp(6);

  SimSession session = net.session(Scheme::kSpeedyMurmurs, 2);
  const Amount initial = session.network().total_funds();
  session.submit_topology(TopologyChange::close(seconds(0.2), 0));
  session.submit(trace);
  const SimMetrics m = session.drain();
  const Network& network = std::as_const(session).network();
  if (m.chunks_churned > 0) {
    // The close caught the payment mid-settlement: full atomic rollback.
    EXPECT_EQ(m.completed_count, 0);
    EXPECT_EQ(m.rejected_count, 1);
    EXPECT_EQ(m.delivered_volume, 0);
  }
  EXPECT_EQ(network.total_funds() + network.escrow_returned(), initial);
  network.check_invariants();
}

TEST(DynamicTopology, RebalancingSkipsClosedChannels) {
  // Rebalancing tops depleted sides back toward their initial share; a
  // closed channel reads as fully depleted but must receive nothing (its
  // escrow went back on-chain — depositing would trip the financial
  // assert and mint funds into a dead channel).
  ScenarioParams params;
  params.payments = 300;
  params.traffic_seed = 11;
  ScenarioInstance scenario = build_scenario("isp", params);
  scenario.config.sim.rebalance_interval = seconds(0.25);
  scenario.config.sim.rebalance_rate_xrp_per_s = 500.0;
  ChurnConfig churn;
  churn.mode = ChurnMode::kCapacityDrain;
  churn.events_per_second = 8.0;
  churn.start = seconds(0.1);
  churn.stop = scenario.trace.back().arrival;
  scenario.churn = ChurnSchedule(scenario.graph, churn).generate();
  ASSERT_FALSE(scenario.churn.empty());

  const SpiderNetwork net(scenario.graph, scenario.config);
  const SimMetrics m =
      net.run(Scheme::kSpiderWaterfilling, scenario.trace, 7, scenario.churn);
  EXPECT_GT(m.channels_closed, 0);
  EXPECT_GT(m.onchain_deposited, 0);
}

// --- Determinism of interleaved churn + payments ----------------------

TEST(DynamicTopology, ChurnInterleavedRunsAreDeterministicForEveryScheme) {
  const ScenarioInstance scenario = small_churny_isp();
  ASSERT_FALSE(scenario.churn.empty());
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics first = net.run(scheme, scenario.trace, 7,
                                     scenario.churn);
    const SimMetrics second = net.run(scheme, scenario.trace, 7,
                                      scenario.churn);
    EXPECT_GT(first.topology_changes, 0);
    EXPECT_GT(first.channels_closed, 0);
    expect_identical(first, second);
  }
}

TEST(DynamicTopology, ChurnInterleavedRunsAreDeterministicInRouterQueueMode) {
  ScenarioInstance scenario = small_churny_isp();
  scenario.config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme :
       {Scheme::kSpiderWaterfilling, Scheme::kSpiderLp,
        Scheme::kShortestPath, Scheme::kSpiderPrimalDual}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics first = net.run(scheme, scenario.trace, 7,
                                     scenario.churn);
    const SimMetrics second = net.run(scheme, scenario.trace, 7,
                                      scenario.churn);
    EXPECT_GT(first.topology_changes, 0);
    expect_identical(first, second);
  }
}

TEST(DynamicTopology, StreamedChurnMatchesBatchChurn) {
  // Churn and payments submitted span by span through a session replay the
  // batch churn run exactly — the streaming-equivalence guarantee extended
  // to the topology stream.
  const ScenarioInstance scenario = small_churny_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme :
       {Scheme::kSpiderWaterfilling, Scheme::kSpeedyMurmurs}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics batch =
        net.run(scheme, scenario.trace, 7, scenario.churn);

    SessionOptions options;
    options.demand_hint = &scenario.trace;
    SimSession session = net.session(scheme, 7, options);
    session.submit_topology(scenario.churn);
    const std::size_t third = scenario.trace.size() / 3;
    session.submit(scenario.trace.data(), third);
    session.submit(scenario.trace.data() + third, third);
    (void)session.advance_until(scenario.trace[third].arrival);
    session.submit(scenario.trace.data() + 2 * third,
                   scenario.trace.size() - 2 * third);
    const SimMetrics streamed = session.drain();
    expect_identical(batch, streamed);
  }
}

TEST(DynamicTopology, ZeroChurnRunIsByteIdenticalToStaticRun) {
  // A session arms its topology chain even when no change is ever
  // submitted; run_simulation never arms one. Both must produce the same
  // bytes, across schemes and both queueing modes. (The absolute pin is
  // the golden fixed-seed gate in test_session.cpp.)
  ScenarioParams params;
  params.payments = 400;
  params.traffic_seed = 9;
  ScenarioInstance scenario = build_scenario("isp", params);
  const std::vector<TopologyChange> empty;
  {
    const SpiderNetwork net(scenario.graph, scenario.config);
    for (const Scheme scheme : all_schemes()) {
      SCOPED_TRACE(scheme_name(scheme));
      expect_identical(run_without_session(net, scheme, scenario.trace, 3),
                       net.run(scheme, scenario.trace, 3, empty));
    }
  }
  scenario.config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme :
       {Scheme::kSpiderWaterfilling, Scheme::kShortestPath}) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_identical(run_without_session(net, scheme, scenario.trace, 3),
                     net.run(scheme, scenario.trace, 3, empty));
  }
}

TEST(DynamicTopology, RegisteredChurnScenariosRunThroughRunnerGrids) {
  ScenarioParams params = {};
  params.payments = 300;
  params.nodes = 40;
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(build_scenario("lightning-churn", params));
  scenarios.push_back(build_scenario("partition-heal", params));
  ASSERT_FALSE(scenarios[0].churn.empty());
  ASSERT_FALSE(scenarios[1].churn.empty());

  ExperimentRunner runner(2);
  const std::vector<std::uint64_t> seeds = {5};
  const auto parallel = runner.run_grid(scenarios, all_schemes(), seeds);
  ExperimentRunner serial(1);
  const auto reference = serial.run_grid(scenarios, all_schemes(), seeds);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(parallel[i].scenario + " / " +
                 scheme_name(parallel[i].cell.scheme));
    EXPECT_GT(parallel[i].metrics.topology_changes, 0);
    expect_identical(parallel[i].metrics, reference[i].metrics);
  }
}

// --- Churn schedules ---------------------------------------------------

TEST(ChurnSchedule, SchedulesAreValidAndDeterministic) {
  const Graph g = ring_topology(12, xrp(100));
  ChurnConfig config;
  config.mode = ChurnMode::kUniform;
  config.events_per_second = 10.0;
  config.start = seconds(1.0);
  config.stop = seconds(20.0);
  config.seed = 3;
  const auto a = ChurnSchedule(g, config).generate();
  const auto b = ChurnSchedule(g, config).generate();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::set<EdgeId> closed;
  EdgeId next_id = g.num_edges();
  TimePoint last = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_GE(a[i].at, last);
    EXPECT_GE(a[i].at, config.start);
    EXPECT_LT(a[i].at, config.stop);
    last = a[i].at;
    if (a[i].kind == TopologyChange::Kind::kClose) {
      // Every close targets a channel that exists and is open HERE.
      EXPECT_LT(a[i].edge, next_id);
      EXPECT_TRUE(closed.insert(a[i].edge).second);
    } else if (a[i].kind == TopologyChange::Kind::kOpen) {
      EXPECT_GT(a[i].amount, 0);
      EXPECT_NE(a[i].a, a[i].b);
      ++next_id;
    }
  }
}

TEST(ChurnSchedule, DrainClosesLargestFirstAndPartitionHealsInPlace) {
  Graph g(6);
  g.add_edge(0, 1, xrp(10));
  g.add_edge(1, 2, xrp(30));
  g.add_edge(2, 3, xrp(20));
  g.add_edge(3, 4, xrp(40));
  g.add_edge(4, 5, xrp(5));
  ChurnConfig drain;
  drain.mode = ChurnMode::kCapacityDrain;
  drain.events_per_second = 1.0;
  drain.start = 0;
  drain.stop = seconds(10.0);
  const auto closes = ChurnSchedule(g, drain).generate();
  ASSERT_EQ(closes.size(), 4u);  // never closes the last open channel
  EXPECT_EQ(closes[0].edge, 3);  // 40 XRP first
  EXPECT_EQ(closes[1].edge, 1);  // then 30
  EXPECT_EQ(closes[2].edge, 2);  // then 20
  EXPECT_EQ(closes[3].edge, 0);  // then 10

  ChurnConfig partition;
  partition.mode = ChurnMode::kPartitionHeal;
  partition.start = seconds(2.0);
  partition.stop = seconds(6.0);
  const Graph ring = ring_topology(8, xrp(50));
  const auto events = ChurnSchedule(ring, partition).generate();
  ASSERT_FALSE(events.empty());
  const auto cut_closes = static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [](const TopologyChange& c) {
        return c.kind == TopologyChange::Kind::kClose;
      }));
  EXPECT_EQ(cut_closes * 2, events.size());  // one reopen per close
  for (const TopologyChange& c : events) {
    if (c.kind == TopologyChange::Kind::kClose)
      EXPECT_EQ(c.at, partition.start);
    else
      EXPECT_EQ(c.at, partition.stop);
  }
  // Healing restores each severed pair with the original escrow.
  for (const TopologyChange& c : events) {
    if (c.kind != TopologyChange::Kind::kOpen) continue;
    EXPECT_EQ(c.amount, xrp(50));
  }
}

TEST(ChurnSchedule, ChurnModeNamesRoundTrip) {
  for (const ChurnMode mode :
       {ChurnMode::kUniform, ChurnMode::kCapacityDrain,
        ChurnMode::kPartitionHeal})
    EXPECT_EQ(churn_mode_from_name(churn_mode_name(mode)), mode);
  EXPECT_THROW((void)churn_mode_from_name("bogus"), std::invalid_argument);
}

// --- Generation-aware candidate paths ---------------------------------

TEST(DynamicTopology, PathDeltaMatchesColdCacheAfterClose) {
  // Warm a shared store on the pristine graph, churn the network's copy,
  // and check CandidatePaths answers equal a cold PathCache built directly
  // on the mutated graph — for stale pairs (recomputed into the delta) and
  // untouched pairs (served from the warm store) alike.
  const Graph g = grid_topology(5, 5, xrp(100));
  PathCache shared(g, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId src = 0; src < g.num_nodes(); ++src)
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
      if (src != dst) pairs.emplace_back(src, dst);
  shared.warm(pairs);

  Network mutated(g);
  const EdgeId closed = *mutated.graph().find_edge(6, 7);
  (void)mutated.close_channel(closed);

  CandidatePaths candidates;
  candidates.init(mutated.graph(), 4, PathSelection::kEdgeDisjoint, &shared);
  candidates.sync(mutated.topology_generation());

  PathCache cold(mutated.graph(), 4, PathSelection::kEdgeDisjoint);
  for (const auto& [src, dst] : pairs) {
    SCOPED_TRACE(testing::Message() << src << "->" << dst);
    const std::span<const Path> live = candidates.paths(src, dst);
    const std::span<const Path> expect = cold.paths(src, dst);
    ASSERT_EQ(live.size(), expect.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i], expect[i]);
      for (const EdgeId e : live[i].edges) EXPECT_NE(e, closed);
    }
  }
}

TEST(DynamicTopology, PathDeltaRecomputesPerGenerationLazily) {
  const Graph g = ring_topology(6, xrp(100));
  Network net(g);
  CandidatePaths candidates;
  candidates.init(net.graph(), 2, PathSelection::kEdgeDisjoint, nullptr);
  candidates.sync(net.topology_generation());
  // Ring: two disjoint paths 0->3.
  ASSERT_EQ(candidates.paths(0, 3).size(), 2u);

  (void)net.close_channel(*net.graph().find_edge(0, 1));
  candidates.sync(net.topology_generation());
  const std::span<const Path> after_close = candidates.paths(0, 3);
  ASSERT_EQ(after_close.size(), 1u);  // only the 0-5-4-3 side survives

  // A new shortcut at a later generation: the pair is stale again and the
  // next lookup (lazily) picks the better route up.
  const EdgeId shortcut = net.open_channel(0, 3, xrp(100));
  candidates.sync(net.topology_generation());
  const std::span<const Path> after_open = candidates.paths(0, 3);
  ASSERT_GE(after_open.size(), 1u);
  EXPECT_EQ(after_open[0].edges.size(), 1u);
  EXPECT_EQ(after_open[0].edges[0], shortcut);
}

// --- SimSession surface ------------------------------------------------

TEST(DynamicTopology, SessionRejectsOutOfOrderOrPastChurn) {
  const Graph g = line_topology(3, xrp(100));
  const SpiderNetwork net(g, SpiderConfig{});
  SimSession session = net.session(Scheme::kShortestPath, 1);
  session.submit_topology(TopologyChange::close(seconds(2.0), 0));
  EXPECT_THROW(
      session.submit_topology(TopologyChange::close(seconds(1.0), 1)),
      AssertionError);
  session.advance_until(seconds(10.0));
  EXPECT_THROW(
      session.submit_topology(TopologyChange::close(seconds(5.0), 1)),
      AssertionError);
  EXPECT_EQ(session.submitted_topology(), 1u);
  EXPECT_EQ(session.metrics().channels_closed, 1);
}

TEST(DynamicTopology, MutableNetworkAccessBumpsGeneration) {
  // The (previously silent) staleness hazard: ad-hoc mutations through
  // network() now raise the same invalidation signal scheduled churn does.
  const Graph g = line_topology(3, xrp(100));
  const SpiderNetwork net(g, SpiderConfig{});
  SimSession session = net.session(Scheme::kShortestPath, 1);
  const std::uint64_t before =
      std::as_const(session).network().topology_generation();
  session.network().channel(0).deposit(0, xrp(1));
  EXPECT_GT(std::as_const(session).network().topology_generation(), before);
}

class ChurnObserver final : public SimObserver {
 public:
  std::vector<TopologyChange> seen;
  void on_topology_change(const TopologyChange& change,
                          const Network& network, TimePoint) override {
    seen.push_back(change);
    if (change.kind == TopologyChange::Kind::kClose) {
      // The hook fires post-application: the channel is already closed.
      EXPECT_TRUE(network.graph().edge_closed(change.edge));
      EXPECT_TRUE(network.channel(change.edge).closed());
    }
  }
};

TEST(DynamicTopology, ObserverSeesEveryChangeInOrder) {
  const ScenarioInstance scenario = small_churny_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SessionOptions options;
  options.demand_hint = &scenario.trace;
  SimSession session = net.session(Scheme::kSpiderWaterfilling, 7, options);
  ChurnObserver observer;
  session.attach(observer);
  session.submit_topology(scenario.churn);
  session.submit(scenario.trace);
  const SimMetrics m = session.drain();
  ASSERT_EQ(observer.seen.size(), scenario.churn.size());
  EXPECT_EQ(m.topology_changes,
            static_cast<std::int64_t>(scenario.churn.size()));
  for (std::size_t i = 0; i < observer.seen.size(); ++i) {
    EXPECT_EQ(observer.seen[i].at, scenario.churn[i].at);
    EXPECT_EQ(observer.seen[i].kind, scenario.churn[i].kind);
  }
}

}  // namespace
}  // namespace spider
