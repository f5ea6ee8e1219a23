// Spider (LP), §6.1.
//
// Solves the balanced-routing LP (eqs. 1–5) ONCE, from the long-term demand
// matrix estimated over the whole trace, on the same 4 edge-disjoint paths
// per pair — then uses the optimal path rates as fixed splitting weights.
//
// Two consequences the paper reports are reproduced deliberately:
//   - pairs to which the LP assigns zero total rate are never attempted
//     (their payments expire in the queue): the router declares
//     PlanSpeculation::kCandidatePaths, and plan_read_paths() is empty for
//     such a pair, so the simulator parks its payments until their
//     deadline instead of calling plan() at every poll, and
//   - because the balanced LP routes exactly the circulation component of
//     the demand, success volume pins near the circulation fraction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fluid/routing_lp.hpp"
#include "routing/path_cache.hpp"
#include "routing/router.hpp"

namespace spider {

/// Objective for the offline fluid LP.
enum class LpObjective {
  /// eqs. (1)-(5): maximize total throughput — the paper's Spider (LP).
  /// May assign zero to whole pairs (§6.2's caveat).
  kThroughput,
  /// §5.3's fairness remark, realized as two-stage max-min: first maximize
  /// the minimum served fraction, then throughput. Every connected pair
  /// gets a positive weight whenever the fair fraction is positive.
  kMaxMinFairness,
};

class LpRouter final : public Router {
 public:
  /// `max_pairs` caps the number of demand pairs the offline LP models
  /// (0 = unlimited): pairs are ranked by demand and the tail is dropped,
  /// i.e. treated exactly like the pairs the LP itself zeroes out. Uncapped,
  /// the Ripple-scale solve misses the `payments griefing Spider-(LP)` floor
  /// (ROADMAP item 1); the ISP topology's ~1000 pairs fit without truncation.
  explicit LpRouter(int num_paths = 4, int max_pairs = 0,
                    LpObjective objective = LpObjective::kThroughput);

  [[nodiscard]] std::string name() const override {
    return objective_ == LpObjective::kThroughput ? "Spider (LP)"
                                                  : "Spider (LP max-min)";
  }
  [[nodiscard]] bool is_atomic() const override { return false; }

  /// Requires context.demand_hint (the estimated demand matrix).
  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

  /// plan() reads only the pair's LP paths, fixed by init().
  [[nodiscard]] PlanSpeculation plan_speculation() const override {
    return PlanSpeculation::kCandidatePaths;
  }
  /// The pair's paths in the plan table; empty for a pair the LP zeroed
  /// out or never modelled. plan() starts from this lookup.
  [[nodiscard]] std::span<const Path> plan_read_paths(
      NodeId src, NodeId dst, const Network& network) override;

  /// Fluid throughput of the solved LP in XRP/s (for reporting).
  [[nodiscard]] double fluid_throughput() const { return fluid_throughput_; }
  /// Max-min objective only: the guaranteed served fraction t*.
  [[nodiscard]] double fair_fraction() const { return fair_fraction_; }
  /// Number of demand pairs whose LP weights are all zero (never attempted).
  [[nodiscard]] int zero_weight_pairs() const { return zero_weight_pairs_; }

 private:
  // Routable pairs as a CSR table, rebuilt from scratch by every init():
  // row_[src] .. row_[src + 1] indexes `dst_` (ascending) and the parallel
  // `spans_`, and span s covers paths_[s.first .. s.first + s.count) with
  // their normalized weights at the same positions in `weights_`. A pair
  // the LP zeroed out, or never modelled, is simply absent.
  // plan_read_paths() returns spans of paths_ and plan() hands out pointers
  // into it; both stay valid until the next init().
  struct PlanSpan {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  int num_paths_;
  int max_pairs_;
  LpObjective objective_;
  std::vector<std::uint32_t> row_;  // num_nodes + 1 offsets into dst_
  std::vector<NodeId> dst_;
  std::vector<PlanSpan> spans_;
  std::vector<Path> paths_;
  std::vector<double> weights_;
  // plan() scratch: largest-remainder shares, reused across calls.
  std::vector<Amount> share_;
  std::vector<std::pair<double, std::size_t>> fractions_;
  VirtualBalances virtual_balances_;  // reattached per plan(); O(1) reset
  double fluid_throughput_ = 0.0;
  double fair_fraction_ = 0.0;
  int zero_weight_pairs_ = 0;
};

}  // namespace spider
