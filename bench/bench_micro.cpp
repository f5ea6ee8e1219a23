// E11 — Substrate microbenchmarks (google-benchmark).
//
// Quantifies the §3 overhead claim for max-flow routing (O(|V|·|E|^2) per
// transaction) against the cheap per-payment work of Spider's schemes, plus
// the cost of the offline machinery (K-shortest paths, simplex, circulation
// LP) and the simulator's raw event rate. All topologies/workloads come from
// the scenario registry.
//
// The custom main additionally runs the planner-throughput guardrail:
// plans/sec through the flat (edge, side)-indexed VirtualBalances overlay
// versus the std::map overlay it replaced, emitted via maybe_write_csv so
// future PRs can track the trajectory (SPIDER_BENCH_CSV_DIR=<dir> writes
// micro_planner_throughput.csv).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "bench_common.hpp"
#include "workload/trace_binary.hpp"
#include "fluid/circulation.hpp"
#include "fluid/routing_lp.hpp"
#include "graph/ksp.hpp"
#include "graph/maxflow.hpp"
#include "lp/simplex.hpp"
#include "routing/lp_router.hpp"
#include "routing/path_cache.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/simulator.hpp"
#include "transport/rate_controller.hpp"
#include "transport/router_queue.hpp"
#include "workload/traffic.hpp"

namespace spider {
namespace {

ScenarioInstance paper_scale_isp() {
  ScenarioParams params;
  params.payments = 1;  // fixtures below need the topology, not the trace
  params.capacity_xrp = 30000;
  return build_scenario("isp", params);
}

std::vector<Arc> balance_arcs(const Network& net) {
  std::vector<Arc> arcs;
  const Graph& g = net.graph();
  arcs.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& ch = net.channel(e);
    arcs.push_back(Arc{ch.endpoint(0), ch.endpoint(1), ch.balance(0)});
    arcs.push_back(Arc{ch.endpoint(1), ch.endpoint(0), ch.balance(1)});
  }
  return arcs;
}

void BM_DinicIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(dinic_max_flow(g.num_nodes(), arcs, 8, 30));
}
BENCHMARK(BM_DinicIsp);

void BM_EdmondsKarpIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        edmonds_karp_max_flow(g.num_nodes(), arcs, 8, 30));
}
BENCHMARK(BM_EdmondsKarpIsp);

void BM_DinicRippleLike(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 1;
  params.capacity_xrp = 30000;
  params.nodes = static_cast<NodeId>(state.range(0));
  params.topology_seed = 3;
  const Graph g = build_scenario("ripple-like", params).graph;
  const Network net(g);
  const auto arcs = balance_arcs(net);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dinic_max_flow(g.num_nodes(), arcs, 0, g.num_nodes() - 1));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DinicRippleLike)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_EdgeDisjointK4(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  for (auto _ : state)
    benchmark::DoNotOptimize(edge_disjoint_paths(g, 9, 27, 4));
}
BENCHMARK(BM_EdgeDisjointK4);

void BM_YenK4(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  for (auto _ : state)
    benchmark::DoNotOptimize(yen_k_shortest_paths(g, 9, 27, 4));
}
BENCHMARK(BM_YenK4);

void BM_WaterfillAllocation(benchmark::State& state) {
  Rng rng(1);
  std::vector<Amount> caps(4);
  for (Amount& c : caps) c = rng.uniform_int(0, xrp(1000));
  for (auto _ : state)
    benchmark::DoNotOptimize(waterfill(xrp(170), caps));
}
BENCHMARK(BM_WaterfillAllocation);

void BM_SimplexRoutingLpIsp(benchmark::State& state) {
  const Graph g = paper_scale_isp().graph;
  // Demand matrix over the first 12 nodes (all pairs), rate 1 each.
  PaymentGraph demands(g.num_nodes());
  for (NodeId i = 0; i < 12; ++i)
    for (NodeId j = 0; j < 12; ++j)
      if (i != j) demands.add_demand(i, j, 1.0);
  for (auto _ : state) {
    const RoutingLp lp = RoutingLp::with_disjoint_paths(g, demands, 0.5, 4);
    benchmark::DoNotOptimize(lp.solve_balanced());
  }
}
BENCHMARK(BM_SimplexRoutingLpIsp)->Unit(benchmark::kMillisecond);

/// Times the balanced-routing solve of Spider (LP) on a registry scenario,
/// built as LpRouter builds it: the demand estimate of the whole trace,
/// capped at the scenario's (or the given) pair count.
void run_scenario_lp(benchmark::State& state, const char* scenario,
                     int payments, int max_pairs) {
  ScenarioParams params;
  params.payments = payments;
  const ScenarioInstance instance = build_scenario(scenario, params);
  const int cap = max_pairs > 0 ? max_pairs : instance.config.lp_max_pairs;
  const PaymentGraph demands = largest_demands(
      estimate_demand_matrix(instance.graph.num_nodes(), instance.trace), cap);
  const RoutingLp lp = RoutingLp::with_disjoint_paths(
      instance.graph, demands, to_seconds(instance.config.sim.delta),
      instance.config.num_paths);
  for (auto _ : state) benchmark::DoNotOptimize(lp.solve_balanced());
  state.counters["pairs"] = static_cast<double>(lp.pairs().size());
}

// The perfbench isp-lp shape: 300 pairs of a 100k-payment ISP trace.
void BM_SimplexIspLp300(benchmark::State& state) {
  run_scenario_lp(state, "isp", 100'000, 300);
}
BENCHMARK(BM_SimplexIspLp300)->Unit(benchmark::kMillisecond);

// The griefing row's shape: 900 pairs on the 60-node ripple-like graph.
void BM_SimplexGriefing900(benchmark::State& state) {
  run_scenario_lp(state, "griefing", 6000, 0);
}
BENCHMARK(BM_SimplexGriefing900)->Unit(benchmark::kMillisecond);

void BM_MaxCirculationLp(benchmark::State& state) {
  Rng rng(5);
  PaymentGraph demands(24);
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 23));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, 23));
    if (s == t) continue;
    demands.add_demand(s, t, rng.uniform(0.5, 2.0));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(max_circulation_value(demands));
}
BENCHMARK(BM_MaxCirculationLp)->Unit(benchmark::kMillisecond);

ScenarioInstance simulator_fixture() {
  ScenarioParams params;
  params.payments = 1000;
  return build_scenario("isp", params);
}

void BM_SimulatorWaterfilling1k(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        net.run(Scheme::kSpiderWaterfilling, scenario.trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.trace.size()));
}
BENCHMARK(BM_SimulatorWaterfilling1k)->Unit(benchmark::kMillisecond);

/// A whole Spider (LP) batch run on ISP at the repository benchmark's
/// isp-lp shape (LP capped at 300 pairs), 20k payments: the LP solve, then
/// an event loop in which most payments park on pairs the LP never routes.
void BM_SimulatorLpIsp300(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 20000;
  ScenarioInstance scenario = build_scenario("isp", params);
  scenario.config.lp_max_pairs = 300;
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (auto _ : state)
    benchmark::DoNotOptimize(net.run(Scheme::kSpiderLp, scenario.trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.trace.size()));
}
BENCHMARK(BM_SimulatorLpIsp300)->Unit(benchmark::kMillisecond);

void BM_SimulatorMaxFlow1k(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (auto _ : state)
    benchmark::DoNotOptimize(net.run(Scheme::kMaxFlow, scenario.trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.trace.size()));
}
BENCHMARK(BM_SimulatorMaxFlow1k)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Event-queue guardrails: the heap fallback under random delays, and the
// per-kind lanes under the simulator's fixed-delay mix.
// ---------------------------------------------------------------------------

/// Hold-model churn: keep `depth` events pending, pop one / push one — the
/// classic discrete-event-queue access pattern. Random delays within one
/// kind break its lane's time order, so every push takes the heap fallback.
void BM_EventQueueRandomDelayChurn(benchmark::State& state) {
  EventQueue q;
  Rng rng(42);
  constexpr std::size_t kDepth = 4096;
  for (std::size_t i = 0; i < kDepth; ++i)
    q.schedule(static_cast<TimePoint>(rng.uniform_int(0, 1 << 20)), 0, i);
  for (auto _ : state) {
    const auto ev = q.pop();
    benchmark::DoNotOptimize(ev.index);
    q.schedule(ev.time + static_cast<TimePoint>(rng.uniform_int(1, 1000)), 0,
               ev.index);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueRandomDelayChurn);

/// The simulator's delay mix: each kind fires at now() plus its own fixed
/// delay (hop, queue timeout, settle, poll, pace), so within a kind events
/// arrive in time order and the per-kind lanes take all of them. Arg = the
/// offset added to every kind: 0 uses the lanes, EventQueue::kMaxLanes puts
/// the same schedule through the heap fallback alone.
void BM_EventQueueFixedDelayMix(benchmark::State& state) {
  constexpr std::array<Duration, 5> kDelay = {100'000, 1'000'000, 50'000,
                                              100'000, 200'000};
  const int offset = static_cast<int>(state.range(0));
  Rng rng(42);
  EventQueue q;
  const auto schedule_next = [&](std::size_t index) {
    const auto kind = static_cast<std::size_t>(rng.uniform_int(0, 4));
    q.schedule(q.now() + kDelay[kind], offset + static_cast<int>(kind), index);
  };
  constexpr std::size_t kDepth = 4096;
  for (std::size_t i = 0; i < kDepth; ++i) schedule_next(i);
  for (auto _ : state) {
    const auto ev = q.pop();
    benchmark::DoNotOptimize(ev.index);
    schedule_next(ev.index);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueFixedDelayMix)->Arg(0)->Arg(EventQueue::kMaxLanes);

// ---------------------------------------------------------------------------
// Path-store guardrail: flat-index lookup vs the replaced std::map.
// ---------------------------------------------------------------------------

void BM_FlatPathStoreLookup(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm(pairs);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(store.cached(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatPathStoreLookup);

/// Path warm-up, the layer in front of every cached-path run: a fresh store
/// warmed over the pairs of a 5k-payment trace on the 250-node ripple-like
/// graph. Arg = worker threads; 0 = thread_budget() (SPIDER_THREADS, else
/// the hardware concurrency). The stored paths are the same at any count.
void BM_WarmPaths(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 5000;
  params.nodes = 250;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  const unsigned threads =
      thread_budget(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
    store.warm(pairs, threads);
    benchmark::DoNotOptimize(store.path_count());
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_WarmPaths)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_MapPathCacheLookup(benchmark::State& state) {
  const ScenarioInstance scenario = simulator_fixture();
  // The pre-overhaul layout: map of heap-allocated path vectors.
  std::map<std::pair<NodeId, NodeId>, std::vector<Path>> cache;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  for (const auto& [src, dst] : pairs)
    cache.try_emplace({src, dst},
                      edge_disjoint_paths(scenario.graph, src, dst, 4));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(cache.find(pair)->second.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MapPathCacheLookup);

// ---------------------------------------------------------------------------
// Transport-state guardrail: spider-dctcp's per-path window/pacer lookup
// through the dense table (stamped key, flat index, states in one vector)
// vs the std::unordered_map keyed by an FNV recomputed from the edges that
// it replaced.
// ---------------------------------------------------------------------------

/// One admissible() read per iteration over a ripple-like candidate set
/// larger than L2 (the 250-node, 5k-payment shape of perfbench's
/// ripple-dctcp-replay: ~16k stored paths), visited in trace order. Arg 0
/// = PathRateController, 1 = the replaced node-based map.
void BM_TransportStateLookup(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 5000;
  params.nodes = 250;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm(pairs);
  std::vector<const Path*> visits;
  for (const auto& [src, dst] : pairs)
    for (const Path& path : store.cached(src, dst)) visits.push_back(&path);

  const TransportConfig config;
  PathRateController dense(config);
  dense.reserve(store.path_count());
  // The replaced layout: the same per-path state behind a node-based map.
  struct MapState {
    AimdController window{0};
    TokenPacer pacer{0, 0};
    RttEstimator rtt;
    Amount inflight = 0;
    Amount delivered = 0;
    std::int64_t acks = 0;
    std::int64_t marked_acks = 0;
    std::int64_t losses = 0;
    std::size_t hops = 0;
  };
  std::unordered_map<std::uint64_t, MapState> map;
  const auto map_admissible = [&](const Path& path, TimePoint now) {
    auto [it, inserted] = map.try_emplace(edge_sequence_hash(path.edges));
    MapState& s = it->second;
    if (inserted) {
      s.window = AimdController(config.initial_window);
      s.pacer = TokenPacer(config.initial_window, now);
      s.hops = path.length();
    }
    const Amount window = s.window.window();
    const Amount headroom = window - s.inflight;
    if (headroom <= 0) return Amount{0};
    return std::min(headroom, s.pacer.allowance(
                                  window, s.rtt.rtt(config.initial_rtt), now));
  };
  const bool use_map = state.range(0) != 0;
  TimePoint now = 0;
  for (const Path* path : visits)  // every state exists before timing
    benchmark::DoNotOptimize(use_map ? map_admissible(*path, now)
                                     : dense.admissible(*path, now));
  std::size_t i = 0;
  for (auto _ : state) {
    const Path& path = *visits[i];
    if (++i == visits.size()) i = 0;
    now += 1;
    benchmark::DoNotOptimize(use_map ? map_admissible(path, now)
                                     : dense.admissible(path, now));
  }
  state.counters["paths"] = static_cast<double>(store.path_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TransportStateLookup)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Waiting-payment layers: the poll's pending order and the arrival-time
// read-set check that decides whether Spider (LP) parks a payment.
// ---------------------------------------------------------------------------

/// One poll's ordering of 2k pending SRPT entries when ~4% of the payments
/// locked or were refunded since the previous poll (80 keys flip per round).
void BM_PendingOrderSrpt(benchmark::State& state) {
  constexpr std::size_t kPending = 2000;
  constexpr std::size_t kChangedPerRound = 80;
  Rng rng(7);
  std::vector<Payment> payments(kPending);
  std::vector<PendingEntry> pending;
  std::vector<PendingEntry> scratch;
  for (std::size_t i = 0; i < kPending; ++i) {
    payments[i].id = static_cast<PaymentId>(i);
    payments[i].total = xrp(rng.uniform_int(1, 200));
    payments[i].arrival = rng.uniform_int(0, seconds(50));
    pending.push_back(PendingEntry{i, kNeverOrdered});
  }
  order_pending(SchedulerPolicy::kSrpt, payments, pending, scratch);
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t c = 0; c < kChangedPerRound; ++c) {
      Payment& p = payments[(next += 25) % kPending];
      p.inflight = p.inflight == 0 ? xrp(1) : 0;  // lock, later refund
    }
    order_pending(SchedulerPolicy::kSrpt, payments, pending, scratch);
    benchmark::DoNotOptimize(pending.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPending));
}
BENCHMARK(BM_PendingOrderSrpt);

/// LpRouter::plan_read_paths over a trace's pairs, on the ISP LP capped at
/// 300 pairs (the repository benchmark's isp-lp): the check the simulator
/// makes once per arrival to park the payments no plan() can serve. Most
/// of those pairs are absent from the table (the LP zeroed or never
/// modelled them), so most lookups end in an empty row search.
void BM_LpRouterPlanReadPaths(benchmark::State& state) {
  ScenarioParams params;
  params.payments = 20000;
  const ScenarioInstance scenario = build_scenario("isp", params);
  const Network network(scenario.graph);
  LpRouter router(4, 300);
  init_router_for_run(router, network, scenario.config.sim, &scenario.trace,
                      nullptr);
  std::size_t unplannable = 0;
  for (const PaymentSpec& spec : scenario.trace)
    if (router.plan_read_paths(spec.src, spec.dst, network).empty())
      ++unplannable;
  std::size_t i = 0;
  for (auto _ : state) {
    const PaymentSpec& spec = scenario.trace[i++ % scenario.trace.size()];
    benchmark::DoNotOptimize(
        router.plan_read_paths(spec.src, spec.dst, network).size());
  }
  state.counters["unplannable_share"] =
      static_cast<double>(unplannable) /
      static_cast<double>(scenario.trace.size());
  state.counters["zero_weight_pairs"] = router.zero_weight_pairs();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LpRouterPlanReadPaths);

// ---------------------------------------------------------------------------
// Generation-delta guardrail: churn-aware CandidatePaths lookups vs the
// static warm store they wrap. The dynamic-topology acceptance bar is that
// a lookup against a churned topology (closed-edge validation + warm delta
// hit for stale pairs) stays within 2x of a static warm-store lookup.
// ---------------------------------------------------------------------------

/// Shared setup: a warmed store over the ISP trace plus the trace's pair
/// list (the same mix BM_FlatPathStoreLookup cycles through).
struct DeltaLookupFixture {
  ScenarioInstance scenario;
  PathCache store;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Network network;
  CandidatePaths candidates;

  DeltaLookupFixture()
      : scenario(simulator_fixture()),
        store(scenario.graph, 4, PathSelection::kEdgeDisjoint),
        network(scenario.graph) {
    for (const PaymentSpec& spec : scenario.trace)
      pairs.emplace_back(spec.src, spec.dst);
    store.warm(pairs);
    candidates.init(network.graph(), 4, PathSelection::kEdgeDisjoint,
                    &store);
    candidates.sync(network.topology_generation());
  }

  /// Closes every 8th channel (a heavy churn epoch) and pre-touches every
  /// pair so the per-generation delta is warm — the steady state the
  /// benchmark measures.
  void churn_and_warm_delta() {
    for (EdgeId e = 0; e < network.graph().num_edges(); e += 8)
      (void)network.close_channel(e);
    candidates.sync(network.topology_generation());
    for (const auto& [src, dst] : pairs)
      benchmark::DoNotOptimize(candidates.paths(src, dst).data());
  }
};

void BM_CandidatePathsStaticLookup(benchmark::State& state) {
  DeltaLookupFixture fx;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = fx.pairs[i++ % fx.pairs.size()];
    benchmark::DoNotOptimize(
        fx.candidates.paths(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CandidatePathsStaticLookup);

void BM_CandidatePathsGenerationDeltaLookup(benchmark::State& state) {
  DeltaLookupFixture fx;
  fx.churn_and_warm_delta();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = fx.pairs[i++ % fx.pairs.size()];
    benchmark::DoNotOptimize(
        fx.candidates.paths(pair.first, pair.second).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CandidatePathsGenerationDeltaLookup);

// ---------------------------------------------------------------------------
// Planner-throughput guardrail: flat overlay vs the replaced std::map one.
// ---------------------------------------------------------------------------

/// The pre-refactor std::map overlay, kept as the "before" baseline.
class MapVirtualBalances {
 public:
  explicit MapVirtualBalances(const Network& network) : network_(&network) {}

  [[nodiscard]] Amount available(NodeId from, EdgeId e) const {
    const Channel& ch = network_->channel(e);
    const int side = ch.side_of(from);
    Amount avail = ch.balance(side);
    const auto it = used_.find({e, side});
    if (it != used_.end()) avail -= it->second;
    return std::max<Amount>(0, avail);
  }

  [[nodiscard]] Amount path_bottleneck(const Path& path) const {
    Amount bottleneck = std::numeric_limits<Amount>::max();
    for (std::size_t h = 0; h < path.edges.size(); ++h)
      bottleneck =
          std::min(bottleneck, available(path.nodes[h], path.edges[h]));
    return bottleneck;
  }

  void use(const Path& path, Amount amount) {
    for (std::size_t h = 0; h < path.edges.size(); ++h) {
      const Channel& ch = network_->channel(path.edges[h]);
      used_[{path.edges[h], ch.side_of(path.nodes[h])}] += amount;
    }
  }

 private:
  const Network* network_;
  std::map<std::pair<EdgeId, int>, Amount> used_;
};

struct PlannerFixture {
  Graph graph;
  Network network;
  PathCache cache;
  std::vector<PaymentSpec> trace;

  explicit PlannerFixture(const ScenarioInstance& scenario)
      : graph(scenario.graph),
        network(graph),
        cache(graph, 4, PathSelection::kEdgeDisjoint),
        trace(scenario.trace) {}
};

/// One waterfilling-style planning pass (probe bottlenecks, waterfill,
/// commit virtual locks) over every payment, through the overlay
/// `make_overlay` yields. The factory may return by value (fresh overlay
/// per plan — the old std::map discipline) or by reference (reused flat
/// overlay with an epoch reset — the routers' discipline).
template <typename MakeOverlay>
double plans_per_second(PlannerFixture& fx, MakeOverlay make_overlay,
                        int min_millis) {
  using Clock = std::chrono::steady_clock;
  std::vector<Amount> capacities;
  std::int64_t plans = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed * 1000 < min_millis) {
    for (const PaymentSpec& spec : fx.trace) {
      decltype(auto) overlay = make_overlay(fx.network);
      const std::span<const Path> paths = fx.cache.paths(spec.src, spec.dst);
      if (paths.empty()) continue;
      capacities.clear();
      for (const Path& p : paths)
        capacities.push_back(overlay.path_bottleneck(p));
      const std::vector<Amount> alloc = waterfill(spec.amount, capacities);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const Amount sendable =
            std::min(alloc[i], overlay.path_bottleneck(paths[i]));
        if (sendable <= 0) continue;
        overlay.use(paths[i], sendable);
        benchmark::DoNotOptimize(sendable);
      }
      ++plans;
    }
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return static_cast<double>(plans) / elapsed;
}

void report_planner_throughput() {
  ScenarioParams params;
  params.payments = 2000;
  const ScenarioInstance scenario = build_scenario("isp", params);
  PlannerFixture fx(scenario);

  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  // Reuse one flat overlay across plans (epoch reset), exactly as the
  // routers do; the map baseline reconstructs per plan, exactly as the old
  // code did.
  VirtualBalances reused;
  const double flat = plans_per_second(
      fx,
      [&](const Network& net) -> VirtualBalances& {
        reused.attach(net);
        return reused;
      },
      min_millis);
  const double mapped = plans_per_second(
      fx, [](const Network& net) { return MapVirtualBalances(net); },
      min_millis);

  Table table({"planner", "overlay", "plans_per_sec", "speedup_vs_map"});
  table.add_row({"waterfilling-probe", "flat-epoch",
                 Table::num(flat, 0),
                 Table::num(mapped > 0 ? flat / mapped : 0.0, 2)});
  table.add_row({"waterfilling-probe", "std::map", Table::num(mapped, 0),
                 Table::num(1.0, 2)});
  std::cout << "\nPlanner throughput (plans/sec, higher is better):\n"
            << table.render();
  maybe_write_csv("micro_planner_throughput", table);
}

/// Timed lookups/sec over the trace's pair mix through `candidates`.
double lookups_per_second(DeltaLookupFixture& fx, int min_millis) {
  using Clock = std::chrono::steady_clock;
  std::int64_t lookups = 0;
  std::size_t i = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed * 1000 < min_millis) {
    for (int batch = 0; batch < 4096; ++batch) {
      const auto& pair = fx.pairs[i++ % fx.pairs.size()];
      benchmark::DoNotOptimize(
          fx.candidates.paths(pair.first, pair.second).data());
      ++lookups;
    }
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return static_cast<double>(lookups) / elapsed;
}

/// Dynamic-topology acceptance guardrail: steady-state generation-delta
/// lookups (memoized verdicts after a heavy churn epoch) must stay within
/// 2x of the static warm-store lookup through the same router surface.
void report_generation_delta_lookup() {
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  DeltaLookupFixture static_fx;
  const double static_rate = lookups_per_second(static_fx, min_millis);
  DeltaLookupFixture churned_fx;
  churned_fx.churn_and_warm_delta();
  const double churned_rate = lookups_per_second(churned_fx, min_millis);
  const double slowdown =
      churned_rate > 0 ? static_rate / churned_rate : 0.0;

  Table table({"lookup", "topology", "lookups_per_sec", "slowdown"});
  table.add_row({"candidate-paths", "static", Table::num(static_rate, 0),
                 Table::num(1.0, 2)});
  table.add_row({"candidate-paths", "churned (1/8 closed)",
                 Table::num(churned_rate, 0), Table::num(slowdown, 2)});
  std::cout << "\nGeneration-delta path lookups (2x budget vs static):\n"
            << table.render();
  maybe_write_csv("micro_generation_delta_lookup", table);
  if (slowdown > 2.0)
    std::cout << "WARNING: generation-delta lookups exceed the 2x budget ("
              << Table::num(slowdown, 2) << "x)\n";
}

/// Transport enqueue/mark guardrail: the RouterQueueBank accounting runs on
/// the engine's per-chunk hot path in EVERY router-queue run (transport on
/// or off — that is what keeps QueueDepthProbe truthful and transport-off
/// runs byte-identical). The marking rule must therefore be nearly free: a
/// dequeue whose wait crosses the threshold (mark branch + count) may cost
/// at most 1.15x a dequeue that stays unmarked.
void report_transport_mark_overhead() {
  using Clock = std::chrono::steady_clock;
  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  constexpr std::size_t kEdges = 1024;
  constexpr std::size_t kOps = 1 << 14;
  const Duration threshold = milliseconds(40);

  // Pre-generated (edge, side, amount) op mix so the RNG is outside the
  // timed loop and both sides replay the identical access pattern.
  struct Op {
    std::size_t edge;
    int side;
    Amount amount;
  };
  Rng rng(11);
  std::vector<Op> ops;
  ops.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i)
    ops.push_back({static_cast<std::size_t>(rng.uniform_int(0, kEdges - 1)),
                   static_cast<int>(rng.uniform_int(0, 1)),
                   rng.uniform_int(1, xrp(50))});

  // One enqueue + one dequeue per op at a fixed wait; the mark flag each
  // dequeue returns is consumed, as the simulator's queue service does.
  const auto rate = [&](Duration wait) {
    RouterQueueBank bank;
    bank.begin(kEdges, threshold);
    std::int64_t done = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      for (const Op& op : ops) {
        bank.on_enqueue(op.edge, op.side, op.amount);
        benchmark::DoNotOptimize(
            bank.on_dequeue(op.edge, op.side, op.amount, wait));
        ++done;
      }
      benchmark::DoNotOptimize(bank.total_value());
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    return static_cast<double>(done) / elapsed;
  };

  const double unmarked = rate(threshold / 2);  // below threshold: no mark
  const double marked = rate(threshold * 2);    // above: mark branch fires
  const double overhead = marked > 0 ? unmarked / marked : 0.0;

  Table table({"enqueue+dequeue path", "ops_per_sec", "cost_vs_unmarked"});
  table.add_row({"marked (wait > threshold)", Table::num(marked, 0),
                 Table::num(overhead, 3)});
  table.add_row({"unmarked", Table::num(unmarked, 0), Table::num(1.0, 3)});
  std::cout << "\nTransport enqueue/mark overhead (1.15x budget):\n"
            << table.render();
  maybe_write_csv("micro_transport_mark", table);
  if (overhead > 1.15)
    std::cout << "WARNING: marked dequeues exceed the 1.15x budget ("
              << Table::num(overhead, 3) << "x the unmarked path)\n";
}

/// Trace-parse guardrail for the packed binary format: streaming a .sptr
/// through the mmap'd BinaryTraceReader must beat the CSV parser by >= 5x
/// rows/sec. The format exists to delete parse cost from paper-scale
/// replays — on little-endian hosts next() returns spans straight into
/// the mapping, so "parsing" is header validation plus a monotonicity
/// sweep — and this report keeps that claim measured as both readers
/// evolve (SPIDER_MICRO_PARSE_TXNS scales the trace, default 200k rows).
void report_trace_parse_throughput() {
  using Clock = std::chrono::steady_clock;
  ScenarioParams params;
  params.payments = env_int("SPIDER_MICRO_PARSE_TXNS", 200000);
  const ScenarioInstance scenario = build_scenario("isp", params);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string csv_path = (tmp / "spider_micro_parse.csv").string();
  const std::string bin_path = (tmp / "spider_micro_parse.sptr").string();
  write_trace_csv(csv_path, scenario.trace);
  write_trace_binary(bin_path, scenario.trace);

  const int min_millis = env_int("SPIDER_MICRO_PLANNER_MS", 500);
  const auto rows_per_second = [&](const std::string& path) {
    std::int64_t rows = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed * 1000 < min_millis) {
      const std::unique_ptr<TraceSource> reader = open_trace_source(path);
      while (true) {
        const std::span<const PaymentSpec> chunk = reader->next();
        if (chunk.empty()) break;
        benchmark::DoNotOptimize(chunk.data());
        rows += static_cast<std::int64_t>(chunk.size());
      }
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    return static_cast<double>(rows) / elapsed;
  };
  const double bin = rows_per_second(bin_path);
  const double csv = rows_per_second(csv_path);
  const double speedup = csv > 0 ? bin / csv : 0.0;

  Table table({"trace parse", "rows_per_sec", "speedup_vs_csv"});
  table.add_row({"binary (.sptr, mmap)", Table::num(bin, 0),
                 Table::num(speedup, 2)});
  table.add_row({"csv (from_chars)", Table::num(csv, 0),
                 Table::num(1.0, 2)});
  std::cout << "\nTrace parse throughput (rows/sec; 5x budget for binary):\n"
            << table.render();
  maybe_write_csv("micro_trace_parse", table);
  if (speedup < 5.0)
    std::cout << "WARNING: binary trace parse below the 5x budget ("
              << Table::num(speedup, 2) << "x CSV)\n";
  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
}

}  // namespace
}  // namespace spider

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  spider::report_planner_throughput();
  spider::report_trace_parse_throughput();
  spider::report_generation_delta_lookup();
  spider::report_transport_mark_overhead();
  return 0;
}
