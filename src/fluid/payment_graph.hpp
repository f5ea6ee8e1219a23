// The payment graph H(V, E_H) of §5.2.2: a weighted directed graph whose
// edge (i, j) carries the average rate d_ij at which i must pay j. It
// depends only on the pattern of payments, not on the channel topology, and
// its maximum circulation bounds balanced-routing throughput (Prop. 1).
//
// Rates are doubles (value units per second) — this is the fluid model.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace spider {

struct DemandEdge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double rate = 0.0;
};

class PaymentGraph {
 public:
  PaymentGraph() = default;
  explicit PaymentGraph(NodeId num_nodes);

  /// Accumulates `rate` onto demand (src, dst). Requires src != dst,
  /// rate >= 0.
  void add_demand(NodeId src, NodeId dst, double rate);

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] double demand(NodeId src, NodeId dst) const;
  [[nodiscard]] double total_demand() const;

  /// Non-zero demand edges in deterministic (src, dst) order.
  [[nodiscard]] std::vector<DemandEdge> edges() const;

  /// Sum of outgoing / incoming rates per node.
  [[nodiscard]] std::vector<double> out_rates() const;
  [[nodiscard]] std::vector<double> in_rates() const;

  /// True if in-rate equals out-rate at every node (within eps) — i.e. the
  /// graph is a circulation.
  [[nodiscard]] bool is_circulation(double eps = 1e-9) const;

  /// True if the positive-demand edges form a DAG.
  [[nodiscard]] bool is_acyclic(double eps = 1e-9) const;

 private:
  NodeId num_nodes_ = 0;
  std::map<std::pair<NodeId, NodeId>, double> demands_;
};

/// The `max_pairs` largest demands of `demands` (ties broken by (src, dst)),
/// or all of them when there are no more than that.
[[nodiscard]] PaymentGraph largest_demands(const PaymentGraph& demands,
                                           int max_pairs);

}  // namespace spider
