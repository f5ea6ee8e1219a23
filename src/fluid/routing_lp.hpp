// The fluid-model routing LPs of §5.2.
//
//   solve_balanced()            — eqs. (1)–(5): max throughput, perfect
//                                 balance on every channel.
//   solve_rebalancing(gamma)    — eqs. (6)–(11): throughput minus γ-priced
//                                 on-chain rebalancing.
//   solve_bounded_rebalancing(B)— eqs. (12)–(18): max throughput subject to
//                                 total rebalancing rate <= B; this is t(B),
//                                 shown non-decreasing and concave in §5.2.3.
//
// Paths: callers either pass explicit path sets per demand pair (the paper's
// evaluation uses 4 edge-disjoint shortest paths) or request exhaustive
// trail enumeration for small instances (the Fig. 4 example needs the true
// optimum over all trails).
#pragma once

#include <vector>

#include "fluid/payment_graph.hpp"
#include "graph/graph.hpp"
#include "lp/simplex.hpp"

namespace spider {

/// Candidate paths for one demand pair.
struct PairPaths {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double demand = 0.0;
  std::vector<Path> paths;
};

/// All simple paths (trails without node repetition) from src to dst with at
/// most `max_hops` hops, in deterministic order. Exponential — only for
/// small analytical examples.
[[nodiscard]] std::vector<Path> enumerate_simple_paths(const Graph& g,
                                                       NodeId src, NodeId dst,
                                                       int max_hops);

struct FluidSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double throughput = 0.0;       // Σ_p x_p actually routed
  double rebalancing_rate = 0.0; // Σ_(u,v) b_(u,v)
  double objective = 0.0;        // LP objective (throughput − γ·rebalancing)
  /// Max-min solves only: the guaranteed served fraction t*.
  double min_fraction = 0.0;
  /// x_p per pair, aligned with PairPaths::paths.
  std::vector<std::vector<double>> path_rates;
};

class RoutingLp {
 public:
  /// `delta` is the average transaction confirmation delay Δ in seconds; a
  /// channel with capacity c supports at most c/Δ value per second (§5.2.1).
  RoutingLp(const Graph& graph, std::vector<PairPaths> pairs, double delta);

  /// Convenience: builds the pair set from a payment graph using k
  /// edge-disjoint shortest paths per demand pair (§6.1 uses k = 4).
  static RoutingLp with_disjoint_paths(const Graph& graph,
                                       const PaymentGraph& demands,
                                       double delta, int k);

  /// Convenience: exhaustive simple-path enumeration (small graphs only).
  static RoutingLp with_all_paths(const Graph& graph,
                                  const PaymentGraph& demands, double delta,
                                  int max_hops);

  [[nodiscard]] FluidSolution solve_balanced() const;
  [[nodiscard]] FluidSolution solve_rebalancing(double gamma) const;
  [[nodiscard]] FluidSolution solve_bounded_rebalancing(double bound) const;

  /// Fairness objective (§5.3's closing remark, and the fix §6.2 calls for
  /// when pure throughput maximization zeroes out whole pairs): two-stage
  /// balanced routing that first maximizes the minimum served fraction
  /// t = min_ij (Σ_p x_p) / d_ij, then maximizes total throughput subject
  /// to every pair keeping at least fraction t*. Every pair with a
  /// connected path is guaranteed a positive rate whenever t* > 0.
  [[nodiscard]] FluidSolution solve_max_min_balanced() const;

  /// The models the solves above build, for checking a solver against the
  /// formulation: solve_balanced(), solve_bounded_rebalancing(bound) and
  /// solve_max_min_balanced() solve exactly these.
  [[nodiscard]] LpModel balanced_model() const;
  [[nodiscard]] LpModel bounded_rebalancing_model(double bound) const;
  [[nodiscard]] LpModel max_min_model() const;

  [[nodiscard]] const std::vector<PairPaths>& pairs() const { return pairs_; }

 private:
  struct Built;
  [[nodiscard]] Built build(bool with_rebalancing, double gamma,
                            double bound) const;
  [[nodiscard]] Built build_max_min() const;
  [[nodiscard]] static FluidSolution solve(const Built& built);

  const Graph* graph_;
  std::vector<PairPaths> pairs_;
  double delta_;
};

}  // namespace spider
