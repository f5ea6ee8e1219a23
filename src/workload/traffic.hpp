// Transaction trace generation.
//
// §6.1: Poisson-style arrivals at a configured rate; "the sender for each
// transaction was sampled from the set of nodes using an exponential
// distribution while the receiver was sampled uniformly at random". The
// exponential sender skew is what puts a DAG component into the demand —
// the root cause of the circulation-limited throughput Proposition 1 bounds.
#pragma once

#include <vector>

#include "fluid/payment_graph.hpp"
#include "graph/graph.hpp"
#include "util/time.hpp"
#include "workload/size_dist.hpp"

namespace spider {

/// One payment to be injected into the simulator.
struct PaymentSpec {
  TimePoint arrival = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Amount amount = 0;
  Duration deadline = 0;  // relative to arrival; 0 = no deadline
};

/// The trace parsers' value rule for one in-memory payment: the engine
/// never resolves a payment of amount 0 (there is nothing to route), so
/// it is refused ("non-positive amount_millis", an AssertionError) as a
/// trace file refuses it.
void check_payment_amount(const PaymentSpec& spec);

enum class SenderSkew {
  kUniform,
  /// P(node i) ∝ exp(-i / (n * scale)): a few nodes originate most traffic.
  kExponentialRank,
};

struct TrafficConfig {
  double tx_per_second = 1000.0;
  SenderSkew sender_skew = SenderSkew::kExponentialRank;
  /// Scale of the exponential rank law as a fraction of n (§6.1 does not
  /// publish the parameter; 0.25 gives a clear but not degenerate skew).
  double sender_scale_fraction = 0.25;
  Duration deadline = seconds(5.0);
  std::uint64_t seed = 7;
};

class TrafficGenerator {
 public:
  /// `sizes` must outlive the generator.
  TrafficGenerator(NodeId num_nodes, TrafficConfig config,
                   const SizeDistribution& sizes);

  /// Generates `count` payments with exponential inter-arrival times
  /// (Poisson process at tx_per_second). Deterministic in the config seed.
  [[nodiscard]] std::vector<PaymentSpec> generate(int count);

  /// Per-node sender weights used by the skew (for tests).
  [[nodiscard]] const std::vector<double>& sender_weights() const {
    return sender_weights_;
  }

 private:
  NodeId num_nodes_;
  TrafficConfig config_;
  const SizeDistribution* sizes_;
  Rng rng_;
  std::vector<double> sender_weights_;
};

/// Empirical demand matrix of a trace: d_ij in XRP per second, measured over
/// the trace's time span (or `duration` if positive). This is what Spider
/// (LP) estimates its long-term demands from (§6.1).
[[nodiscard]] PaymentGraph estimate_demand_matrix(
    NodeId num_nodes, const std::vector<PaymentSpec>& trace,
    Duration duration = 0);

}  // namespace spider
