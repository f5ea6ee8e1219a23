// Tests for the named-scenario registry: built-in coverage, determinism,
// parameter overrides, and registration errors.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "core/scenario.hpp"
#include "test_support.hpp"

namespace spider {
namespace {

TEST(ScenarioRegistry, ListsTheBuiltInCatalogue) {
  const auto& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"isp", "ripple-like", "flash-crowd", "scale-free",
        "lightning-snapshot-synthetic", "hub-spoke", "small-world"})
    EXPECT_TRUE(registry.contains(name)) << name;

  const auto entries = registry.list();
  EXPECT_GE(entries.size(), 6u);
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_LT(entries[i - 1].name, entries[i].name);  // sorted
  for (const auto& entry : entries)
    EXPECT_FALSE(entry.description.empty()) << entry.name;
}

TEST(ScenarioRegistry, FlashCrowdSurgesInTheMiddle) {
  ScenarioParams params;
  params.payments = 4000;
  const ScenarioInstance instance = build_scenario("flash-crowd", params);
  const auto& trace = instance.trace;
  ASSERT_EQ(trace.size(), 4000u);
  // Arrivals stay nondecreasing across the phase seams, so the trace is
  // session-submittable in spans.
  for (std::size_t i = 1; i < trace.size(); ++i)
    ASSERT_GE(trace[i].arrival, trace[i - 1].arrival) << i;

  // The middle half arrives ~4x faster than the surrounding quarters.
  const auto mean_gap_s = [&](std::size_t lo, std::size_t hi) {
    return to_seconds(trace[hi].arrival - trace[lo].arrival) /
           static_cast<double>(hi - lo);
  };
  const double head = mean_gap_s(0, 999);
  const double crowd = mean_gap_s(1000, 2999);
  const double tail = mean_gap_s(3000, 3999);
  EXPECT_NEAR(head / crowd, 4.0, 1.2);
  EXPECT_NEAR(tail / crowd, 4.0, 1.2);
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)build_scenario("no-such-scenario"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(ScenarioRegistry::instance().add(
                   "isp", "dup", [](const ScenarioParams&) {
                     return ScenarioInstance{};
                   }),
               std::invalid_argument);
}

TEST(ScenarioRegistry, EveryBuiltInMaterializesAValidRun) {
  ScenarioParams params;
  params.payments = 50;  // keep the test fast
  const ReplayFiles replay = provide_replay_files(params, 50);
  for (const auto& entry : ScenarioRegistry::instance().list()) {
    const ScenarioInstance instance = build_scenario(entry.name, params);
    EXPECT_EQ(instance.name, entry.name);
    EXPECT_GE(instance.graph.num_nodes(), 2) << entry.name;
    EXPECT_TRUE(instance.graph.is_connected()) << entry.name;
    // Adversarial scenarios may append attack traffic (e.g. the griefing
    // flood) on top of the requested benign payments.
    ASSERT_GE(instance.trace.size(), 50u) << entry.name;
    for (const PaymentSpec& spec : instance.trace) {
      EXPECT_GE(spec.src, 0);
      EXPECT_LT(spec.src, instance.graph.num_nodes());
      EXPECT_LT(spec.dst, instance.graph.num_nodes());
      EXPECT_NE(spec.src, spec.dst);
      EXPECT_GT(spec.amount, 0);
    }
    EXPECT_NO_THROW(instance.config.validate()) << entry.name;
  }
}

TEST(ScenarioRegistry, BuildsAreDeterministic) {
  ScenarioParams params;
  params.payments = 80;
  const ScenarioInstance a = build_scenario("ripple-like", params);
  const ScenarioInstance b = build_scenario("ripple-like", params);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].src, b.trace[i].src);
    EXPECT_EQ(a.trace[i].dst, b.trace[i].dst);
    EXPECT_EQ(a.trace[i].amount, b.trace[i].amount);
    EXPECT_EQ(a.trace[i].arrival, b.trace[i].arrival);
  }
  EXPECT_EQ(a.graph.serialize(), b.graph.serialize());
}

TEST(ScenarioRegistry, ParamsOverrideScenarioDefaults) {
  ScenarioParams params;
  params.payments = 10;
  params.capacity_xrp = 777;
  params.nodes = 40;
  params.traffic_seed = 5;

  const ScenarioInstance defaults = build_scenario("scale-free", {
      // defaults except a short trace, to compare against
  });
  const ScenarioInstance custom = build_scenario("scale-free", params);
  EXPECT_EQ(custom.graph.num_nodes(), 40);
  EXPECT_NE(custom.graph.num_nodes(), defaults.graph.num_nodes());
  EXPECT_EQ(custom.graph.edge(0).capacity, xrp(777));
  EXPECT_EQ(custom.trace.size(), 10u);
}

TEST(ScenarioRegistry, IspScenarioMatchesPaperTopologyShape) {
  ScenarioParams params;
  params.payments = 20;
  const ScenarioInstance isp = build_scenario("isp", params);
  EXPECT_EQ(isp.graph.num_nodes(), 32);   // §6.1 Topology Zoo graph
  EXPECT_EQ(isp.graph.num_edges(), 76);   // 152 directed edges
}


TEST(ScenarioRegistry, LpPairCapOverrideReachesEveryScenario) {
  ScenarioParams params;
  params.payments = 20;
  params.lp_max_pairs = 123;
  const ReplayFiles replay = provide_replay_files(params, 20);
  for (const auto& entry : ScenarioRegistry::instance().list())
    EXPECT_EQ(build_scenario(entry.name, params).config.lp_max_pairs, 123)
        << entry.name;
}

// --- Golden registry instances ----------------------------------------------

/// What a scenario build hands the runner, reduced to numbers: the
/// topology, the trace, the churn and fault streams, and the config knobs
/// the registry sets.
struct InstanceFingerprint {
  std::string name;
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t capacity = 0;
  std::int64_t payments = 0;
  std::int64_t volume = 0;
  std::int64_t last_arrival = 0;
  std::int64_t churn = 0;
  std::int64_t faults = 0;
  std::int64_t lp_max_pairs = 0;
  std::int64_t num_paths = 0;
  std::int64_t retry_limit = 0;
  std::int64_t transport = 0;
  std::int64_t router_queue = 0;
  std::int64_t mark_threshold = 0;
  std::int64_t initial_window = 0;
  std::int64_t min_window = 0;
  std::int64_t pace_interval = 0;

  bool operator==(const InstanceFingerprint&) const = default;
};

/// Prints the fingerprint as the initializer the golden tables use.
std::ostream& operator<<(std::ostream& out, const InstanceFingerprint& f) {
  return out << "{\"" << f.name << "\", " << f.nodes << ", " << f.edges
             << ", " << f.capacity << ", " << f.payments << ", " << f.volume
             << ", " << f.last_arrival << ", " << f.churn << ", " << f.faults
             << ", " << f.lp_max_pairs << ", " << f.num_paths << ", "
             << f.retry_limit << ", " << f.transport << ", "
             << f.router_queue << ", " << f.mark_threshold << ", "
             << f.initial_window << ", " << f.min_window << ", "
             << f.pace_interval << "}";
}

InstanceFingerprint fingerprint(const ScenarioInstance& instance) {
  InstanceFingerprint f;
  f.name = instance.name;
  f.nodes = instance.graph.num_nodes();
  f.edges = instance.graph.num_edges();
  f.capacity = instance.graph.total_capacity();
  f.payments = static_cast<std::int64_t>(instance.trace.size());
  for (const PaymentSpec& spec : instance.trace) f.volume += spec.amount;
  f.last_arrival = instance.trace.empty() ? 0 : instance.trace.back().arrival;
  f.churn = static_cast<std::int64_t>(instance.churn.size());
  f.faults = static_cast<std::int64_t>(instance.faults.size());
  const SpiderConfig& c = instance.config;
  f.lp_max_pairs = c.lp_max_pairs;
  f.num_paths = c.num_paths;
  f.retry_limit = c.sim.retry_limit;
  f.transport = c.sim.transport.enabled ? 1 : 0;
  f.router_queue = c.sim.queueing == QueueingMode::kRouterQueue ? 1 : 0;
  f.mark_threshold = c.sim.transport.mark_threshold;
  f.initial_window = c.sim.transport.initial_window;
  f.min_window = c.sim.transport.min_window;
  f.pace_interval = c.sim.transport.pace_interval;
  return f;
}

/// Builds every registered scenario at 200 payments under `params` and
/// compares each against `golden`, which lists all of them.
void expect_golden_instances(ScenarioParams params,
                             const std::vector<InstanceFingerprint>& golden) {
  params.payments = 200;
  const ReplayFiles replay = provide_replay_files(params, 200);
  const auto entries = ScenarioRegistry::instance().list();
  ASSERT_EQ(entries.size(), golden.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    SCOPED_TRACE(entries[i].name);
    EXPECT_EQ(fingerprint(build_scenario(entries[i].name, params)),
              golden[i]);
  }
}

// Values recorded before the experiment-layer fold (registry defaults, the
// cross-scenario knobs, the churn and fault plans). The second table sets
// every cross knob except the LP pair cap, whose fix changes where it
// applies. Row layout: name, nodes, edges, capacity, payments, volume,
// last arrival, churn, faults; then lp_max_pairs, num_paths, retry_limit,
// transport, router queue, mark threshold, initial and min window, pace.
TEST(ScenarioRegistry, GoldenInstancesSurviveRefactors) {
  expect_golden_instances(ScenarioParams{}, {
      {"flash-crowd", 60, 174, 522000000, 200, 56704388, 309886, 0, 0,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"griefing", 60, 174, 522000000, 223, 62940436, 509004, 0, 6,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"hub-drain", 60, 174, 522000000, 200, 61790436, 509004, 0, 6,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"hub-spoke", 24, 23, 92000000, 200, 33264315, 1047138, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"isp", 32, 76, 228000000, 200, 32088260, 520685, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"lightning-churn", 120, 585, 292500000, 200, 31110347, 819816, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"lightning-snapshot-synthetic", 120, 585, 292500000, 200, 31110347,
       819816, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"lossy-network", 32, 76, 228000000, 200, 32088260, 520685, 0, 152,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"partition-heal", 60, 174, 522000000, 200, 61790436, 509004, 168, 0,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"ripple-full", 3774, 11316, 33948000000, 200, 60455176, 203687, 0, 0,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"ripple-like", 60, 174, 522000000, 200, 61790436, 509004, 0, 0,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"scale-free", 100, 197, 394000000, 200, 31569934, 670158, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"small-world", 64, 256, 512000000, 200, 31564152, 676229, 0, 0,
       0, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
      {"trace-replay", 32, 76, 228000000, 200, 32088260, 520685, 0, 0,
       900, 4, 0, 0, 0, 40000, 200000, 5000, 100000},
  });
  ScenarioParams overrides;
  overrides.paths_k = 3;
  overrides.retry_limit = 4;
  overrides.transport = 1;
  overrides.window_xrp = 2;
  overrides.churn_rate = 5.0;
  overrides.fault_nodes = 2;
  expect_golden_instances(overrides, {
      {"flash-crowd", 60, 174, 522000000, 200, 56704388, 309886, 0, 0,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"griefing", 60, 174, 522000000, 230, 63290436, 509004, 0, 4,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"hub-drain", 60, 174, 522000000, 200, 61790436, 509004, 0, 4,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"hub-spoke", 24, 23, 92000000, 200, 33264315, 1047138, 0, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"isp", 32, 76, 228000000, 200, 32088260, 520685, 0, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"lightning-churn", 120, 585, 292500000, 200, 31110347, 819816, 2, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"lightning-snapshot-synthetic", 120, 585, 292500000, 200, 31110347,
       819816, 0, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"lossy-network", 32, 76, 228000000, 200, 32088260, 520685, 0, 152,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"partition-heal", 60, 174, 522000000, 200, 61790436, 509004, 168, 0,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"ripple-full", 3774, 11316, 33948000000, 200, 60455176, 203687, 0, 0,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"ripple-like", 60, 174, 522000000, 200, 61790436, 509004, 0, 0,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"scale-free", 100, 197, 394000000, 200, 31569934, 670158, 0, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"small-world", 64, 256, 512000000, 200, 31564152, 676229, 0, 0,
       0, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
      {"trace-replay", 32, 76, 228000000, 200, 32088260, 520685, 0, 0,
       900, 3, 4, 1, 1, 40000, 2000, 2000, 100000},
  });
}

}  // namespace
}  // namespace spider
