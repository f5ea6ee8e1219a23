// Price-based primal–dual routing — the §5.3 algorithm run *online*.
//
// This is the extension direction the paper sketches but does not evaluate
// (§5.3.1 "source nodes … query for the path prices, and adapt the rate on
// each path"; §6.1 "we leave implementing … rate control to future work").
// The router keeps a PrimalDualSolver over the same K edge-disjoint paths
// per pair, advances it a few iterations at every queue poll, and paces each
// pair's sending through per-path token buckets refilled at the solver's
// current optimal rates x_p. Non-atomic.
#pragma once

#include <memory>

#include "fluid/primal_dual.hpp"
#include "routing/router.hpp"
#include "util/flat_index.hpp"

namespace spider {

struct PrimalDualRouterConfig {
  /// Solver iterations per queue poll.
  int steps_per_tick = 5;
  /// Solver iterations before the first payment (price warm-up).
  int warmup_steps = 2000;
  /// Token-bucket depth, as a multiple of one poll interval's budget.
  double bucket_depth = 4.0;
  PrimalDualConfig solver;
};

class PrimalDualRouter final : public Router {
 public:
  explicit PrimalDualRouter(int num_paths = 4,
                            PrimalDualRouterConfig config = {});

  [[nodiscard]] std::string name() const override {
    return "Spider (Primal-Dual)";
  }
  [[nodiscard]] bool is_atomic() const override { return false; }

  /// Requires context.demand_hint.
  void init(const Network& network, const RouterInitContext& context) override;

  void on_tick(const Network& network, TimePoint now) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

  [[nodiscard]] const PrimalDualSolver* solver() const {
    return solver_.get();
  }

 private:
  int num_paths_;
  PrimalDualRouterConfig config_;
  std::unique_ptr<PrimalDualSolver> solver_;
  FlatIndex pair_index_;  // pair key -> solver pair slot
  std::vector<std::vector<double>> tokens_;  // XRP, per pair per path
  VirtualBalances virtual_balances_;  // reattached per plan(); O(1) reset
  TimePoint last_tick_ = -1;
};

}  // namespace spider
