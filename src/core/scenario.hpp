// Named-scenario registry: the experiment layer's catalogue of workloads.
//
// A scenario bundles everything one simulation run needs besides the routing
// scheme: a topology, a SpiderConfig, and a transaction trace. The built-in
// scenarios cover the paper's two evaluation topologies (`isp`,
// `ripple-like`) plus synthetic families for scaling studies (`scale-free`,
// `lightning-snapshot-synthetic`, `hub-spoke`, `small-world`). Benches and
// examples build their setup through the registry — adding a workload to the
// whole bench suite is one add() call — and the ExperimentRunner consumes
// ScenarioInstances as the scenario axis of its (scheme × seed × scenario)
// grid.
//
// Every builder is deterministic in its ScenarioParams, so a scenario name
// plus params fully reproduces a run.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/fault_schedule.hpp"
#include "workload/churn.hpp"
#include "workload/traffic.hpp"

namespace spider {

/// Knobs shared by every scenario. 0 (or empty) means "use the scenario's
/// default"; from_env() fills them from the SPIDER_* environment variables
/// the benches have always honoured, so argument-free bench runs stay
/// laptop-scale while DESIGN.md-documented overrides reproduce paper scale.
struct ScenarioParams {
  int payments = 0;            // trace length            (SPIDER_TXNS)
  double tx_per_second = 0.0;  // arrival rate            (SPIDER_TX_RATE)
  int capacity_xrp = 0;        // per-channel escrow      (SPIDER_CAPACITY_XRP)
  NodeId nodes = 0;            // scalable families only  (SPIDER_NODES)
  int lp_max_pairs = 0;        // Spider (LP) pair cap    (SPIDER_LP_MAX_PAIRS)
  int paths_k = 0;             // candidate-path count    (SPIDER_PATHS_K)
  std::uint64_t topology_seed = 0;  //                    (SPIDER_SEED)
  std::uint64_t traffic_seed = 0;   //                    (SPIDER_TRAFFIC_SEED)
  /// Channel churn (scenarios that declare a ChurnSchedule): topology
  /// events per simulated second, and the schedule mode ("uniform",
  /// "drain", "partition-heal"; empty = scenario default).
  double churn_rate = 0.0;          //                    (SPIDER_CHURN_RATE)
  std::string churn_mode;           //                    (SPIDER_CHURN_MODE)
  /// Trace-driven workloads (`trace-replay`): payments CSV in the
  /// write_trace_csv schema, and a channel-list topology CSV in the
  /// write_topology_csv schema. Both required by that scenario.
  std::string trace_file;           //                    (SPIDER_TRACE_FILE)
  std::string topology_file;        //                    (SPIDER_TOPOLOGY_FILE)
  /// Fault injection (the adversarial scenarios `griefing`, `hub-drain`,
  /// `lossy-network`): schedule mode ("crash-storm", "hub-drain", "lossy",
  /// "griefing"; empty = scenario default), fault events per simulated
  /// second (crash-storm), per-message drop probability (lossy), attacker /
  /// hub count, and the fault base seed (0 = derive from the sim seed).
  std::string fault_mode;           //                    (SPIDER_FAULT_MODE)
  double fault_rate = 0.0;          //                    (SPIDER_FAULT_RATE)
  double loss_prob = 0.0;           //                    (SPIDER_LOSS_PROB)
  int fault_nodes = 0;              //                    (SPIDER_FAULT_NODES)
  std::uint64_t fault_seed = 0;     //                    (SPIDER_FAULT_SEED)
  /// Sender-side resilience knobs, applied to every scenario's config
  /// (0 = keep the config default, i.e. off): max send attempts per
  /// payment, exponential-backoff base between retries, and a default
  /// per-payment deadline for specs that carry none.
  int retry_limit = 0;              //                    (SPIDER_RETRY_LIMIT)
  int retry_backoff_ms = 0;         //                    (SPIDER_RETRY_BACKOFF_MS)
  int payment_deadline_ms = 0;      //                (SPIDER_PAYMENT_DEADLINE_MS)
  /// Transport layer (src/transport/): transport > 0 enables the router
  /// queues + AIMD scheme feedback (and switches the config to router-queue
  /// mode); the remaining knobs override the marking threshold, initial
  /// per-path window, and pace interval when positive. Transport-dependent
  /// schemes (spider-dctcp) enable the transport regardless.
  int transport = 0;                //                    (SPIDER_TRANSPORT)
  int mark_threshold_ms = 0;        //                (SPIDER_MARK_THRESHOLD_MS)
  int window_xrp = 0;               //                    (SPIDER_WINDOW_XRP)
  int pace_interval_ms = 0;         //                (SPIDER_PACE_INTERVAL_MS)

  /// Reads the SPIDER_* overrides; anything unset stays "scenario default".
  [[nodiscard]] static ScenarioParams from_env();
};

/// A fully materialized scenario: what the runner executes a scheme over.
/// Every surface that consumes it (runner grids, benches) hands `churn`
/// and `faults` to SpiderNetwork::run_streams with the trace, so a
/// non-empty stream makes it a dynamic-topology or adversarial scenario
/// and empty ones schedule nothing.
struct ScenarioInstance {
  std::string name;
  Graph graph;
  SpiderConfig config;
  std::vector<PaymentSpec> trace;
  std::vector<TopologyChange> churn;
  std::vector<FaultEvent> faults;
};

using ScenarioBuilder =
    std::function<ScenarioInstance(const ScenarioParams&)>;

class ScenarioRegistry {
 public:
  struct Entry {
    std::string name;
    std::string description;
  };

  /// The process-wide registry, with the built-in scenarios pre-registered.
  [[nodiscard]] static ScenarioRegistry& instance();

  /// Registers a scenario; throws std::invalid_argument on a duplicate name.
  void add(const std::string& name, const std::string& description,
           ScenarioBuilder builder);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Materializes `name`; throws std::invalid_argument for unknown names.
  [[nodiscard]] ScenarioInstance build(
      const std::string& name, const ScenarioParams& params = {}) const;

  /// All registered scenarios, sorted by name.
  [[nodiscard]] std::vector<Entry> list() const;

 private:
  ScenarioRegistry();  // registers the built-ins

  struct Registered {
    std::string description;
    ScenarioBuilder builder;
  };
  std::vector<std::pair<std::string, Registered>> entries_;  // insertion order
};

/// Convenience: ScenarioRegistry::instance().build(name, params).
[[nodiscard]] ScenarioInstance build_scenario(
    const std::string& name, const ScenarioParams& params = {});

}  // namespace spider
