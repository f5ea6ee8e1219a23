#include "routing/primal_dual_router.hpp"

#include <algorithm>
#include <cmath>

#include "graph/ksp.hpp"

namespace spider {

PrimalDualRouter::PrimalDualRouter(int num_paths,
                                   PrimalDualRouterConfig config)
    : num_paths_(num_paths), config_(config) {
  SPIDER_ASSERT(num_paths >= 1);
  SPIDER_ASSERT(config.steps_per_tick >= 1);
  SPIDER_ASSERT(config.warmup_steps >= 0);
  SPIDER_ASSERT(config.bucket_depth > 0);
}

void PrimalDualRouter::init(const Network& network,
                            const RouterInitContext& context) {
  SPIDER_ASSERT_MSG(context.demand_hint != nullptr,
                    "primal-dual router needs a demand matrix estimate");
  pair_index_ = FlatIndex{};
  tokens_.clear();
  last_tick_ = -1;

  std::vector<PairPaths> pairs;
  const auto key_of = [&pairs](std::uint32_t s) {
    return pair_key(pairs[s].src, pairs[s].dst);
  };
  for (const DemandEdge& d : context.demand_hint->edges()) {
    PairPaths pp;
    pp.src = d.src;
    pp.dst = d.dst;
    pp.demand = d.rate;
    pp.paths = edge_disjoint_paths(network.graph(), d.src, d.dst, num_paths_);
    if (pp.paths.empty()) continue;
    // Demand edges are distinct pairs: each takes the next solver slot.
    pair_index_.find_or_insert(pair_key(d.src, d.dst), key_of);
    pairs.push_back(std::move(pp));
  }
  solver_ = std::make_unique<PrimalDualSolver>(
      network.graph(), std::move(pairs), context.delta_seconds,
      config_.solver);
  for (int i = 0; i < config_.warmup_steps; ++i) solver_->step();

  tokens_.resize(solver_->path_rates().size());
  for (std::size_t i = 0; i < tokens_.size(); ++i)
    tokens_[i].assign(solver_->path_rates()[i].size(), 0.0);
}

void PrimalDualRouter::on_tick(const Network&, TimePoint now) {
  SPIDER_ASSERT(solver_ != nullptr);
  for (int i = 0; i < config_.steps_per_tick; ++i) solver_->step();
  if (last_tick_ >= 0 && now > last_tick_) {
    const double dt = to_seconds(now - last_tick_);
    const auto& rates = solver_->path_rates();
    for (std::size_t pi = 0; pi < tokens_.size(); ++pi) {
      for (std::size_t qi = 0; qi < tokens_[pi].size(); ++qi) {
        const double budget = rates[pi][qi] * dt;
        const double depth = rates[pi][qi] * dt * config_.bucket_depth;
        tokens_[pi][qi] = std::min(tokens_[pi][qi] + budget,
                                   std::max(budget, depth));
      }
    }
  }
  last_tick_ = now;
}

std::vector<ChunkPlan> PrimalDualRouter::plan(const Payment& payment,
                                              Amount amount,
                                              const Network& network, Rng&) {
  SPIDER_ASSERT(solver_ != nullptr);
  const std::vector<PairPaths>& pairs = solver_->pairs();
  const std::uint32_t pi = pair_index_.find(
      pair_key(payment.src, payment.dst), [&pairs](std::uint32_t s) {
        return pair_key(pairs[s].src, pairs[s].dst);
      });
  if (pi == FlatIndex::kAbsent) return {};
  const std::vector<Path>& paths = pairs[pi].paths;
  virtual_balances_.attach(network);
  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  for (std::size_t qi = 0; qi < paths.size() && left > 0; ++qi) {
    const Amount token_cap = xrp_from_double(tokens_[pi][qi]);
    if (token_cap <= 0) continue;
    const Amount sendable =
        std::min({left, token_cap,
                  virtual_balances_.path_bottleneck(paths[qi])});
    if (sendable <= 0) continue;
    virtual_balances_.use(paths[qi], sendable);
    tokens_[pi][qi] -= to_xrp(sendable);
    // Solver-owned pair paths are stable until the next init().
    chunks.push_back(ChunkPlan{&paths[qi], sendable});
    left -= sendable;
  }
  return chunks;
}

}  // namespace spider
