#include "transport/backpressure_router.hpp"

#include <algorithm>
#include <numeric>

namespace spider {

BackpressureRouter::BackpressureRouter(int num_paths, PathSelection selection)
    : num_paths_(num_paths), selection_(selection) {
  SPIDER_ASSERT(num_paths >= 1);
}

void BackpressureRouter::init(const Network& network,
                              const RouterInitContext& context) {
  paths_.init(network.graph(), num_paths_, selection_, context.shared_paths);
}

Amount BackpressureRouter::path_backlog(const Path& path,
                                        const Network& network) const {
  if (queues_ == nullptr) return 0;
  Amount backlog = 0;
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const EdgeId e = path.edges[h];
    if (static_cast<std::size_t>(e) >= queues_->num_edges()) continue;
    const int side = network.channel(e).side_of(path.nodes[h]);
    backlog += queues_->side(static_cast<std::size_t>(e), side).value;
  }
  return backlog;
}

std::vector<ChunkPlan> BackpressureRouter::plan(const Payment& payment,
                                                Amount amount,
                                                const Network& network,
                                                Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};

  // Least-backlogged path first; candidate index (shortest-first) breaks
  // ties deterministically.
  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Amount> backlog(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i)
    backlog[i] = path_backlog(paths[i], network);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (backlog[a] != backlog[b]) return backlog[a] < backlog[b];
    return a < b;
  });

  return plan_greedy(paths, order, amount, network, queues_ != nullptr,
                     scratch_);
}

}  // namespace spider
