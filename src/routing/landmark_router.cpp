#include "routing/landmark_router.hpp"

#include <algorithm>
#include <numeric>

#include "graph/shortest_path.hpp"

namespace spider {

std::vector<NodeId> remove_walk_loops(const std::vector<NodeId>& walk) {
  // Scan left to right; on encountering a node already on the result, cut
  // the loop back to its first occurrence.
  std::vector<NodeId> result;
  for (NodeId node : walk) {
    const auto it = std::find(result.begin(), result.end(), node);
    if (it != result.end()) {
      result.erase(it + 1, result.end());
    } else {
      result.push_back(node);
    }
  }
  return result;
}

LandmarkRouter::LandmarkRouter(int num_landmarks)
    : num_landmarks_(num_landmarks) {
  SPIDER_ASSERT(num_landmarks >= 1);
}

void LandmarkRouter::init(const Network& network, const RouterInitContext&) {
  const Graph& graph = network.graph();
  generation_ = network.topology_generation();
  landmarks_.clear();
  path_cache_.clear();

  // Landmarks: highest-degree nodes (ties toward lower id) — the "well
  // connected, highly trusted" nodes of the SilentWhispers design.
  std::vector<NodeId> nodes(static_cast<std::size_t>(graph.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), 0);
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    if (graph.degree(a) != graph.degree(b))
      return graph.degree(a) > graph.degree(b);
    return a < b;
  });
  const auto count = std::min<std::size_t>(
      static_cast<std::size_t>(num_landmarks_), nodes.size());
  landmarks_.assign(nodes.begin(),
                    nodes.begin() + static_cast<std::ptrdiff_t>(count));
}

const std::vector<Path>& LandmarkRouter::landmark_paths(const Graph& graph,
                                                        NodeId src,
                                                        NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it = path_cache_.find(key);
  if (it != path_cache_.end()) return it->second;

  std::vector<Path> paths;
  for (NodeId landmark : landmarks_) {
    const Path to_landmark = bfs_path(graph, src, landmark);
    const Path from_landmark = bfs_path(graph, landmark, dst);
    if (to_landmark.empty() || from_landmark.empty()) continue;
    std::vector<NodeId> walk = to_landmark.nodes;
    walk.insert(walk.end(), from_landmark.nodes.begin() + 1,
                from_landmark.nodes.end());
    const std::vector<NodeId> simple = remove_walk_loops(walk);
    if (simple.size() < 2) continue;
    Path path = make_path(graph, simple);
    if (std::find(paths.begin(), paths.end(), path) == paths.end())
      paths.push_back(std::move(path));
  }
  return path_cache_.emplace(key, std::move(paths)).first->second;
}

std::vector<ChunkPlan> LandmarkRouter::plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network, Rng&) {
  if (network.topology_generation() != generation_) {
    // Topology moved: the cached landmark routes may cross closed channels
    // or miss new ones. Drop them all; pairs recompute lazily on demand.
    generation_ = network.topology_generation();
    path_cache_.clear();
  }
  const std::vector<Path>& paths =
      landmark_paths(network.graph(), payment.src, payment.dst);
  if (paths.empty()) return {};

  // Probe each path's joint bottleneck, then fill highest-capacity first.
  virtual_balances_.attach(network);
  std::vector<std::pair<Amount, std::size_t>> capacity_order;
  for (std::size_t i = 0; i < paths.size(); ++i)
    capacity_order.push_back({virtual_balances_.path_bottleneck(paths[i]), i});
  std::sort(capacity_order.begin(), capacity_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  for (const auto& [unused, index] : capacity_order) {
    if (left <= 0) break;
    const Amount sendable =
        std::min(left, virtual_balances_.path_bottleneck(paths[index]));
    if (sendable <= 0) continue;
    virtual_balances_.use(paths[index], sendable);
    // Valid until the next plan() (router.hpp's ChunkPlan bound): plan()
    // clears path_cache_ when the topology generation moves.
    chunks.push_back(ChunkPlan{&paths[index], sendable});
    left -= sendable;
  }
  if (left > 0) return {};  // atomic: cannot carry the full amount
  return chunks;
}

}  // namespace spider
