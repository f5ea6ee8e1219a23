#include "routing/shortest_path_router.hpp"

#include <algorithm>

namespace spider {

void ShortestPathRouter::init(const Network& network,
                              const RouterInitContext& context) {
  // A k > 1 shared store works too: edge-disjoint selection is greedy, so
  // its first path is the plain BFS shortest path regardless of k.
  paths_.init(network.graph(), /*k=*/1, PathSelection::kEdgeDisjoint,
              context.shared_paths);
}

std::vector<ChunkPlan> ShortestPathRouter::plan(const Payment& payment,
                                                Amount amount,
                                                const Network& network,
                                                Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};
  const Path& path = paths.front();
  const Amount sendable =
      std::min(amount, network.path_bottleneck(path));
  if (sendable <= 0) return {};
  return {ChunkPlan{&path, sendable}};
}

}  // namespace spider
