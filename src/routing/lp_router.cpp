#include "routing/lp_router.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace spider {

LpRouter::LpRouter(int num_paths, int max_pairs, LpObjective objective)
    : num_paths_(num_paths), max_pairs_(max_pairs), objective_(objective) {
  SPIDER_ASSERT(num_paths >= 1);
  SPIDER_ASSERT(max_pairs >= 0);
}

void LpRouter::init(const Network& network,
                    const RouterInitContext& context) {
  SPIDER_ASSERT_MSG(context.demand_hint != nullptr,
                    "Spider (LP) needs a demand matrix estimate");
  row_.clear();
  dst_.clear();
  spans_.clear();
  paths_.clear();
  weights_.clear();
  fluid_throughput_ = 0.0;

  const PaymentGraph demands =
      max_pairs_ > 0 ? largest_demands(*context.demand_hint, max_pairs_)
                     : *context.demand_hint;

  const RoutingLp lp = RoutingLp::with_disjoint_paths(
      network.graph(), demands, context.delta_seconds, num_paths_);
  const FluidSolution solution = objective_ == LpObjective::kThroughput
                                     ? lp.solve_balanced()
                                     : lp.solve_max_min_balanced();
  SPIDER_ASSERT_MSG(solution.status == LpStatus::kOptimal,
                    "balanced routing LP failed to solve");
  fluid_throughput_ = solution.throughput;
  fair_fraction_ = solution.min_fraction;
  zero_weight_pairs_ = 0;

  constexpr double kEps = 1e-9;
  struct Routable {
    NodeId src;
    NodeId dst;
    std::size_t pair;
    double total;
  };
  std::vector<Routable> routable;
  for (std::size_t pi = 0; pi < lp.pairs().size(); ++pi) {
    const PairPaths& pp = lp.pairs()[pi];
    double total = 0;
    for (double r : solution.path_rates[pi]) total += r;
    if (total > kEps) {
      routable.push_back(Routable{pp.src, pp.dst, pi, total});
    } else {
      ++zero_weight_pairs_;
    }
  }
  std::sort(routable.begin(), routable.end(),
            [](const Routable& a, const Routable& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });

  const auto num_nodes = static_cast<std::size_t>(network.graph().num_nodes());
  row_.assign(num_nodes + 1, 0);
  for (const Routable& r : routable) {
    ++row_[static_cast<std::size_t>(r.src) + 1];
    const std::vector<Path>& paths = lp.pairs()[r.pair].paths;
    const std::vector<double>& rates = solution.path_rates[r.pair];
    SPIDER_ASSERT(rates.size() == paths.size());
    dst_.push_back(r.dst);
    spans_.push_back(PlanSpan{static_cast<std::uint32_t>(paths_.size()),
                              static_cast<std::uint32_t>(paths.size())});
    paths_.insert(paths_.end(), paths.begin(), paths.end());
    for (double rate : rates) weights_.push_back(rate / r.total);
  }
  for (std::size_t v = 0; v < num_nodes; ++v) row_[v + 1] += row_[v];
}

std::span<const Path> LpRouter::plan_read_paths(NodeId src, NodeId dst,
                                                const Network&) {
  // Unknown pair, or a pair the LP zeroed out: absent from the table, so
  // the read set is empty and the pair is never attempted (§6.2).
  const auto row = static_cast<std::size_t>(src);
  if (src < 0 || row + 1 >= row_.size()) return {};
  const auto row_begin = dst_.begin() + row_[row];
  const auto row_end = dst_.begin() + row_[row + 1];
  const auto it = std::lower_bound(row_begin, row_end, dst);
  if (it == row_end || *it != dst) return {};
  const PlanSpan span = spans_[static_cast<std::size_t>(it - dst_.begin())];
  return {paths_.data() + span.first, span.count};
}

std::vector<ChunkPlan> LpRouter::plan(const Payment& payment, Amount amount,
                                      const Network& network, Rng&) {
  const std::span<const Path> pair_paths =
      plan_read_paths(payment.src, payment.dst, network);
  if (pair_paths.empty()) return {};
  const Path* paths = pair_paths.data();
  const double* weights = weights_.data() + (paths - paths_.data());

  // Apportion `amount` by weight (largest-remainder rounding), then cap each
  // share by the current joint bottleneck of its path.
  const std::size_t n = pair_paths.size();
  share_.assign(n, 0);
  fractions_.clear();
  Amount assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(amount) * weights[i];
    share_[i] = static_cast<Amount>(std::floor(exact));
    assigned += share_[i];
    fractions_.push_back({exact - std::floor(exact), i});
  }
  std::sort(fractions_.begin(), fractions_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t j = 0; assigned < amount && j < fractions_.size(); ++j) {
    ++share_[fractions_[j].second];
    ++assigned;
  }

  virtual_balances_.attach(network);
  std::vector<ChunkPlan> chunks;
  for (std::size_t i = 0; i < n; ++i) {
    if (share_[i] <= 0) continue;
    const Amount sendable =
        std::min(share_[i], virtual_balances_.path_bottleneck(paths[i]));
    if (sendable <= 0) continue;
    virtual_balances_.use(paths[i], sendable);
    // paths_ is stable until the next init(): the pointer outlives the
    // simulator's immediate consumption of the plan.
    chunks.push_back(ChunkPlan{&paths[i], sendable});
  }
  return chunks;
}

}  // namespace spider
