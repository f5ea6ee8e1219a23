#include "core/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/experiment.hpp"
#include "topology/topology.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace_binary.hpp"
#include "workload/trace_io.hpp"

namespace spider {

ScenarioParams ScenarioParams::from_env() {
  ScenarioParams params;
  params.payments = env_int("SPIDER_TXNS", 0);
  params.tx_per_second = env_double("SPIDER_TX_RATE", 0.0);
  params.capacity_xrp = env_int("SPIDER_CAPACITY_XRP", 0);
  params.nodes = static_cast<NodeId>(env_int("SPIDER_NODES", 0));
  params.lp_max_pairs = env_int("SPIDER_LP_MAX_PAIRS", 0);
  params.paths_k = env_int("SPIDER_PATHS_K", 0);
  params.topology_seed =
      static_cast<std::uint64_t>(env_int("SPIDER_SEED", 0));
  params.traffic_seed =
      static_cast<std::uint64_t>(env_int("SPIDER_TRAFFIC_SEED", 0));
  params.churn_rate = env_double("SPIDER_CHURN_RATE", 0.0);
  params.churn_mode = env_string("SPIDER_CHURN_MODE", "");
  params.trace_file = env_string("SPIDER_TRACE_FILE", "");
  params.topology_file = env_string("SPIDER_TOPOLOGY_FILE", "");
  params.fault_mode = env_string("SPIDER_FAULT_MODE", "");
  params.fault_rate = env_double("SPIDER_FAULT_RATE", 0.0);
  params.loss_prob = env_double("SPIDER_LOSS_PROB", 0.0);
  params.fault_nodes = env_int("SPIDER_FAULT_NODES", 0);
  params.fault_seed =
      static_cast<std::uint64_t>(env_int("SPIDER_FAULT_SEED", 0));
  params.retry_limit = env_int("SPIDER_RETRY_LIMIT", 0);
  params.retry_backoff_ms = env_int("SPIDER_RETRY_BACKOFF_MS", 0);
  params.payment_deadline_ms = env_int("SPIDER_PAYMENT_DEADLINE_MS", 0);
  params.transport = env_int("SPIDER_TRANSPORT", 0);
  params.mark_threshold_ms = env_int("SPIDER_MARK_THRESHOLD_MS", 0);
  params.window_xrp = env_int("SPIDER_WINDOW_XRP", 0);
  params.pace_interval_ms = env_int("SPIDER_PACE_INTERVAL_MS", 0);
  return params;
}

namespace {

/// Spider (LP) pair cap of the Ripple-scale scenarios: uncapped, their LP
/// misses the `payments griefing Spider-(LP)` floor (ROADMAP item 1).
constexpr int kRippleScaleLpPairs = 900;

/// Per-scenario defaults that ScenarioParams' zero-values fall back to.
struct Defaults {
  int payments;
  double tx_per_second;
  int capacity_xrp;
  NodeId nodes;
  std::uint64_t topology_seed = 1;
  std::uint64_t traffic_seed = 1;
  int lp_max_pairs = 0;
};

struct Resolved {
  int payments;
  double tx_per_second;
  Amount capacity;
  NodeId nodes;
  std::uint64_t topology_seed;
  std::uint64_t traffic_seed;
  int lp_max_pairs;
};

Resolved resolve(const ScenarioParams& p, const Defaults& d) {
  Resolved r{};
  r.payments = p.payments > 0 ? p.payments : d.payments;
  r.tx_per_second =
      p.tx_per_second > 0 ? p.tx_per_second : d.tx_per_second;
  r.capacity = xrp(p.capacity_xrp > 0 ? p.capacity_xrp : d.capacity_xrp);
  r.nodes = p.nodes > 0 ? p.nodes : d.nodes;
  r.topology_seed = p.topology_seed != 0 ? p.topology_seed : d.topology_seed;
  r.traffic_seed = p.traffic_seed != 0 ? p.traffic_seed : d.traffic_seed;
  r.lp_max_pairs = d.lp_max_pairs;  // apply_cross_knobs overrides it
  return r;
}

/// Applies the knobs every scenario honours regardless of how it builds
/// its trace: the LP pair cap, candidate paths, sender resilience, fault
/// seed and transport (all "0 = keep the scenario's default").
void apply_cross_knobs(SpiderConfig& config, const ScenarioParams& p) {
  if (p.lp_max_pairs > 0) config.lp_max_pairs = p.lp_max_pairs;
  if (p.paths_k > 0) config.num_paths = p.paths_k;
  if (p.retry_limit > 0) config.sim.retry_limit = p.retry_limit;
  if (p.retry_backoff_ms > 0)
    config.sim.retry_backoff = milliseconds(p.retry_backoff_ms);
  if (p.payment_deadline_ms > 0)
    config.sim.default_deadline = milliseconds(p.payment_deadline_ms);
  if (p.fault_seed != 0) config.sim.fault_seed = p.fault_seed;
  if (p.transport > 0) {
    config.sim.transport.enabled = true;
    config.sim.queueing = QueueingMode::kRouterQueue;
  }
  if (p.mark_threshold_ms > 0)
    config.sim.transport.mark_threshold = milliseconds(p.mark_threshold_ms);
  if (p.window_xrp > 0) {
    config.sim.transport.initial_window = xrp(p.window_xrp);
    config.sim.transport.min_window =
        std::min(config.sim.transport.min_window,
                 config.sim.transport.initial_window);
  }
  if (p.pace_interval_ms > 0)
    config.sim.transport.pace_interval = milliseconds(p.pace_interval_ms);
}

/// The step every scenario finishes through: bundles the graph and trace
/// with the default config under the scenario's LP pair cap and the cross
/// knobs.
ScenarioInstance finish(std::string name, Graph graph,
                        std::vector<PaymentSpec> trace, const Resolved& r,
                        const ScenarioParams& p) {
  ScenarioInstance instance;
  instance.name = std::move(name);
  instance.graph = std::move(graph);
  instance.trace = std::move(trace);
  instance.config.lp_max_pairs = r.lp_max_pairs;
  apply_cross_knobs(instance.config, p);
  return instance;
}

/// Finishes a scenario whose trace is the §6.1 synthetic workload over
/// `graph` with `sizes`.
ScenarioInstance materialize(std::string name, Graph graph, const Resolved& r,
                             const SizeDistribution& sizes,
                             const ScenarioParams& p) {
  TrafficConfig traffic;
  traffic.tx_per_second = r.tx_per_second;
  traffic.seed = r.traffic_seed;
  TrafficGenerator generator(graph.num_nodes(), traffic, sizes);
  std::vector<PaymentSpec> trace = generator.generate(r.payments);
  return finish(std::move(name), std::move(graph), std::move(trace), r, p);
}

/// The churn plan of the dynamic-topology scenarios: `mode` unless
/// SPIDER_CHURN_MODE overrides it, SPIDER_CHURN_RATE events/s (default 2)
/// over [start, stop), seeded by the topology seed.
ChurnConfig churn_plan(const ScenarioParams& p, const Resolved& r,
                       ChurnMode mode, TimePoint start, TimePoint stop) {
  ChurnConfig churn;
  churn.mode = p.churn_mode.empty() ? mode : churn_mode_from_name(p.churn_mode);
  churn.events_per_second = p.churn_rate > 0 ? p.churn_rate : 2.0;
  churn.start = start;
  churn.stop = stop;
  churn.seed = r.topology_seed;
  return churn;
}

/// The fault plan of the adversarial scenarios: `mode` unless
/// SPIDER_FAULT_MODE overrides it, over [start, stop), with the
/// SPIDER_FAULT_RATE / SPIDER_FAULT_NODES / SPIDER_LOSS_PROB /
/// SPIDER_FAULT_SEED overrides (defaults 1/s, 3 nodes, 5%, topology seed).
FaultScheduleConfig fault_plan(const ScenarioParams& p, const Resolved& r,
                               FaultMode mode, TimePoint start,
                               TimePoint stop) {
  FaultScheduleConfig faults;
  faults.mode =
      p.fault_mode.empty() ? mode : fault_mode_from_name(p.fault_mode);
  faults.start = start;
  faults.stop = stop;
  faults.events_per_second = p.fault_rate > 0 ? p.fault_rate : 1.0;
  faults.node_count = p.fault_nodes > 0 ? p.fault_nodes : 3;
  faults.loss_probability = p.loss_prob > 0 ? p.loss_prob : 0.05;
  faults.seed = p.fault_seed != 0 ? p.fault_seed : r.topology_seed;
  return faults;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  // --- The paper's two evaluation topologies (§6.1) ---
  add("isp",
      "32-node ISP backbone (Topology Zoo stand-in), §6.1 synthetic "
      "workload: Poisson arrivals, exponential-rank senders, Ripple-shaped "
      "sizes (mean 170 XRP)",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {6000, 400.0, 3000, 32});
        Graph graph = isp_topology(r.capacity, r.topology_seed);
        return materialize("isp", std::move(graph), r,
                           *ripple_synthetic_sizes(), p);
      });
  add("ripple-like",
      "Barabási–Albert credit graph matching the pruned Ripple snapshot's "
      "edge/node ratio; Ripple-subgraph transaction sizes (mean 345 XRP)",
      [](const ScenarioParams& p) {
        const Resolved r =
            resolve(p, {4000, 400.0, 3000, 60, 1, 2, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);
        return materialize("ripple-like", std::move(graph), r,
                           *ripple_subgraph_sizes(), p);
      });
  add("ripple-full",
      "The paper point: BA m=3 credit graph at the pruned Ripple snapshot's "
      "full scale (3774 nodes, ~11.3k channels) with the §6.1 workload "
      "defaults (200k payments @ 1000 tx/s, Ripple-subgraph sizes)",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(
            p, {200000, 1000.0, 3000, 3774, 1, 2, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);
        return materialize("ripple-full", std::move(graph), r,
                           *ripple_subgraph_sizes(), p);
      });

  add("flash-crowd",
      "Ripple-like credit graph under a mid-run arrival surge: the first "
      "quarter of payments arrives at the base rate, the middle half at 4x "
      "(the flash crowd), the final quarter at the base rate again — the "
      "dynamic-workload stress case for the session API's windowed "
      "steady-state measurement",
      [](const ScenarioParams& p) {
        const Resolved r =
            resolve(p, {4000, 400.0, 3000, 60, 1, 4, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);

        // Piecewise-rate trace: each phase draws from its own generator
        // stream (deterministic in the traffic seed) and is shifted to
        // start where the previous phase ended, so arrivals stay
        // nondecreasing — ready to submit through a SimSession in spans.
        struct Phase {
          int count;
          double rate;
          std::uint64_t salt;
        };
        const int quarter = r.payments / 4;
        const Phase phases[] = {
            {quarter, r.tx_per_second, 0},
            {r.payments - 2 * quarter, 4.0 * r.tx_per_second, 1},
            {quarter, r.tx_per_second, 2},
        };
        const auto sizes = ripple_subgraph_sizes();
        std::vector<PaymentSpec> trace;
        trace.reserve(static_cast<std::size_t>(r.payments));
        TimePoint offset = 0;
        for (const Phase& phase : phases) {
          TrafficConfig traffic;
          traffic.tx_per_second = phase.rate;
          traffic.seed = r.traffic_seed + phase.salt * 7919;
          TrafficGenerator generator(graph.num_nodes(), traffic, *sizes);
          std::vector<PaymentSpec> part =
              generator.generate(phase.count);
          for (PaymentSpec& spec : part) spec.arrival += offset;
          if (!part.empty()) offset = part.back().arrival;
          trace.insert(trace.end(), part.begin(), part.end());
        }
        return finish("flash-crowd", std::move(graph), std::move(trace), r,
                      p);
      });

  add("lightning-churn",
      "Lightning-like hub topology (BA m=5, small 500 XRP channels) under "
      "continuous channel churn: a deterministic uniform open/close process "
      "(default 2 topology events/s, SPIDER_CHURN_RATE / SPIDER_CHURN_MODE "
      "override) interleaves with the payment stream — the dynamic-topology "
      "stress case for generation-aware route invalidation",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {4000, 250.0, 500, 120});
        Rng rng(r.topology_seed);
        Graph graph = barabasi_albert_topology(r.nodes, 5, r.capacity, rng);
        ScenarioInstance instance =
            materialize("lightning-churn", std::move(graph), r,
                        *ripple_synthetic_sizes(), p);
        const TimePoint span = instance.trace.back().arrival;
        // Let the network warm before churning.
        instance.churn =
            ChurnSchedule(instance.graph, churn_plan(p, r, ChurnMode::kUniform,
                                                     span / 10, span))
                .generate();
        return instance;
      });
  add("partition-heal",
      "Ripple-like credit graph that partitions mid-run and heals: every "
      "channel crossing a node bipartition closes at one-third of the trace "
      "span (escrow returned, in-flight chunks refunded) and a replacement "
      "channel per severed one opens at two-thirds — watch cross-partition "
      "success collapse and recover through WindowedMetrics",
      [](const ScenarioParams& p) {
        const Resolved r =
            resolve(p, {4000, 400.0, 3000, 60, 1, 2, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);
        ScenarioInstance instance =
            materialize("partition-heal", std::move(graph), r,
                        *ripple_subgraph_sizes(), p);
        const TimePoint span = instance.trace.back().arrival;
        instance.churn =
            ChurnSchedule(instance.graph,
                          churn_plan(p, r, ChurnMode::kPartitionHeal,
                                     span / 3, 2 * span / 3))
                .generate();
        return instance;
      });

  // --- Adversarial scenarios (deterministic fault injection) ---
  add("hub-drain",
      "Ripple-like credit graph under a targeted connectivity attack: the "
      "SPIDER_FAULT_NODES (default 3) highest-degree hubs crash at "
      "one-third of the trace span — every in-flight chunk through them "
      "refunds, the hubs stop forwarding — and recover at two-thirds. The "
      "attack-resilience case for path diversity: schemes that spread load "
      "across k edge-disjoint paths keep routing around the crater",
      [](const ScenarioParams& p) {
        const Resolved r =
            resolve(p, {4000, 400.0, 3000, 60, 1, 2, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);
        ScenarioInstance instance =
            materialize("hub-drain", std::move(graph), r,
                        *ripple_subgraph_sizes(), p);
        const TimePoint span = instance.trace.back().arrival;
        instance.faults =
            FaultSchedule(instance.graph,
                          fault_plan(p, r, FaultMode::kHubDrain, span / 3,
                                     2 * span / 3))
                .generate();
        return instance;
      });
  add("lossy-network",
      "ISP backbone where every channel drops messages with SPIDER_LOSS_PROB "
      "(default 5%) from one-tenth of the trace span until the end: each "
      "dropped chunk times out holding its locks (HTLC semantics), then "
      "refunds. The resilience case for sender retry — pair with "
      "SPIDER_RETRY_* to watch completion_after_retry recover the ratio",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {6000, 400.0, 3000, 32});
        Graph graph = isp_topology(r.capacity, r.topology_seed);
        ScenarioInstance instance =
            materialize("lossy-network", std::move(graph), r,
                        *ripple_synthetic_sizes(), p);
        const TimePoint span = instance.trace.back().arrival;
        instance.faults =
            FaultSchedule(instance.graph,
                          fault_plan(p, r, FaultMode::kLossyNetwork,
                                     span / 10, span))
                .generate();
        return instance;
      });
  add("griefing",
      "Ripple-like credit graph under a griefing attack: SPIDER_FAULT_NODES "
      "(default 3) seeded attacker nodes black-hole every chunk they "
      "receive — holding the locks for the grief window before the refund — "
      "over the middle half of the run, while an attacker-directed payment "
      "flood (one-quarter of the benign rate) drags honest escrow into "
      "their channels. The capacity-exhaustion attack HTLC deadlines bound",
      [](const ScenarioParams& p) {
        const Resolved r =
            resolve(p, {4000, 400.0, 3000, 60, 1, 2, kRippleScaleLpPairs});
        Graph graph =
            ripple_like_topology(r.nodes, r.capacity, r.topology_seed);
        ScenarioInstance instance =
            materialize("griefing", std::move(graph), r,
                        *ripple_subgraph_sizes(), p);
        const TimePoint span = instance.trace.back().arrival;
        const FaultScheduleConfig faults =
            fault_plan(p, r, FaultMode::kGriefing, span / 4, 3 * span / 4);
        const FaultSchedule schedule(instance.graph, faults);
        instance.faults = schedule.generate();

        // Attacker flood: payments from random honest senders INTO the
        // attacker set during the grief window, drawn from the schedule's
        // own stream so the benign trace is untouched. Merged by arrival
        // (stable — flood after benign on ties), the combined trace stays
        // nondecreasing and the run stays deterministic.
        const std::vector<NodeId> attackers = schedule.target_nodes();
        Rng flood_rng(faults.seed ^ 0xF100DULL);
        const double flood_rate = r.tx_per_second / 4.0;
        std::vector<PaymentSpec> flood;
        double t = to_seconds(faults.start);
        for (std::size_t i = 0;; ++i) {
          t += flood_rng.exponential(1.0 / flood_rate);
          const TimePoint at = seconds(t);
          if (at >= faults.stop) break;
          PaymentSpec spec;
          spec.arrival = at;
          spec.dst = attackers[i % attackers.size()];
          do {
            spec.src = static_cast<NodeId>(flood_rng.uniform_int(
                0, instance.graph.num_nodes() - 1));
          } while (spec.src == spec.dst);
          spec.amount = xrp(50);
          flood.push_back(spec);
        }
        std::vector<PaymentSpec> merged;
        merged.reserve(instance.trace.size() + flood.size());
        std::merge(instance.trace.begin(), instance.trace.end(),
                   flood.begin(), flood.end(), std::back_inserter(merged),
                   [](const PaymentSpec& a, const PaymentSpec& b) {
                     return a.arrival < b.arrival;
                   });
        instance.trace = std::move(merged);
        return instance;
      });

  // --- Trace-driven workloads (imported topology + captured payments) ---
  add("trace-replay",
      "Replay an externally captured workload: channel-list topology from "
      "SPIDER_TOPOLOGY_FILE (node_a,node_b,capacity_millis CSV, or a .sptp "
      "binary snapshot) and payments from SPIDER_TRACE_FILE "
      "(write_trace_csv schema, or a .sptr binary trace) — dispatch is by "
      "file extension. This is how real Ripple/Lightning traces, or traces "
      "emitted by spider_trace_gen, enter every registry surface (runner "
      "grids, benches, sessions). SPIDER_TXNS caps the replayed prefix; "
      "SPIDER_CAPACITY_XRP overrides every imported channel's escrow. For "
      "traces too large to materialize, drive a TraceSource through "
      "replay_trace (core/replay.hpp) instead of building this instance",
      [](const ScenarioParams& p) {
        if (p.trace_file.empty() || p.topology_file.empty())
          throw std::invalid_argument(
              "trace-replay: set SPIDER_TRACE_FILE and SPIDER_TOPOLOGY_FILE "
              "(ScenarioParams::trace_file / topology_file)");
        // Zero defaults: the files' own capacities and length stand unless
        // overridden. Imported snapshots can be Ripple-scale, so the LP
        // cap matches the ripple-like scenarios'.
        const Resolved r =
            resolve(p, {0, 0.0, 0, 0, 1, 1, kRippleScaleLpPairs});
        Graph graph = read_topology_any(p.topology_file);
        if (r.capacity > 0) graph.set_uniform_capacity(r.capacity);
        std::vector<PaymentSpec> trace = read_trace_any(p.trace_file);
        if (r.payments > 0 &&
            trace.size() > static_cast<std::size_t>(r.payments))
          trace.resize(static_cast<std::size_t>(r.payments));
        validate_trace_nodes(trace.data(), trace.size(), graph.num_nodes());
        return finish("trace-replay", std::move(graph), std::move(trace), r,
                      p);
      });

  // --- Synthetic families for scaling studies beyond the paper ---
  add("scale-free",
      "Barabási–Albert (m = 2) heavy-tailed topology; §6.1 synthetic sizes",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {4000, 300.0, 2000, 100});
        Rng rng(r.topology_seed);
        Graph graph = barabasi_albert_topology(r.nodes, 2, r.capacity, rng);
        return materialize("scale-free", std::move(graph), r,
                           *ripple_synthetic_sizes(), p);
      });
  add("lightning-snapshot-synthetic",
      "Lightning-like snapshot: hub-dominated Barabási–Albert (m = 5) with "
      "small per-channel escrow (500 XRP default)",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {4000, 250.0, 500, 120});
        Rng rng(r.topology_seed);
        Graph graph = barabasi_albert_topology(r.nodes, 5, r.capacity, rng);
        return materialize("lightning-snapshot-synthetic", std::move(graph),
                           r, *ripple_synthetic_sizes(), p);
      });
  add("hub-spoke",
      "Single-hub star: every payment crosses the hub — the worst case for "
      "balance depletion and the best case for rebalancing studies",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {3000, 200.0, 4000, 24});
        Graph graph = star_topology(r.nodes, r.capacity);
        return materialize("hub-spoke", std::move(graph), r,
                           *ripple_synthetic_sizes(), p);
      });
  add("small-world",
      "Watts–Strogatz small world (k = 4, beta = 0.1): short path lengths "
      "with high clustering",
      [](const ScenarioParams& p) {
        const Resolved r = resolve(p, {4000, 300.0, 2000, 64});
        Rng rng(r.topology_seed);
        Graph graph =
            watts_strogatz_topology(r.nodes, 4, 0.1, r.capacity, rng);
        return materialize("small-world", std::move(graph), r,
                           *ripple_synthetic_sizes(), p);
      });
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(const std::string& name,
                           const std::string& description,
                           ScenarioBuilder builder) {
  if (contains(name))
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" +
                                name + "'");
  entries_.emplace_back(name, Registered{description, std::move(builder)});
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.first == name; });
}

ScenarioInstance ScenarioRegistry::build(const std::string& name,
                                         const ScenarioParams& params) const {
  for (const auto& [entry_name, registered] : entries_)
    if (entry_name == name) return registered.builder(params);
  throw std::invalid_argument("ScenarioRegistry: unknown scenario '" + name +
                              "'");
}

std::vector<ScenarioRegistry::Entry> ScenarioRegistry::list() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [name, registered] : entries_)
    out.push_back(Entry{name, registered.description});
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

ScenarioInstance build_scenario(const std::string& name,
                                const ScenarioParams& params) {
  return ScenarioRegistry::instance().build(name, params);
}

}  // namespace spider
