// Multi-path selection.
//
// §5.3.1: "practical implementations would restrict the set of paths
// considered between each source and destination ... e.g. the K shortest
// paths"; §6.1 restricts Spider's algorithms to "4 disjoint shortest paths".
// Both selection strategies are provided so the path-selection ablation
// (bench_path_ablation) can compare them.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"

namespace spider {

/// Reusable scratch for candidate-path searches on one graph: a BFS kernel
/// plus the blocked-edge mask both selections search under. Each search
/// starts from the pair's first path — the unblocked BFS shortest path,
/// which PathCache::warm reads off one BFS tree per source — and extends
/// it. One per thread; the graph must outlive it.
class KspSearch {
 public:
  explicit KspSearch(const Graph& g);

  /// Up to `k` (>= 1) pairwise edge-disjoint paths beginning with `first`.
  [[nodiscard]] std::vector<Path> edge_disjoint(Path first, int k);

  /// Yen's algorithm: up to `k` (>= 1) loopless paths beginning with
  /// `first`, in non-decreasing length order.
  [[nodiscard]] std::vector<Path> yen(Path first, int k);

 private:
  const Graph* graph_;
  BfsKernel kernel_;
  std::vector<std::uint8_t> blocked_;  // all zero between searches
  std::vector<EdgeId> banned_;         // Yen: edges blocked for one spur
};

/// Yen's algorithm over hop counts. Returns up to `k` loopless paths in
/// non-decreasing length order (may return fewer if the graph has fewer;
/// none if src == dst).
[[nodiscard]] std::vector<Path> yen_k_shortest_paths(const Graph& g,
                                                     NodeId src, NodeId dst,
                                                     int k);

/// Up to `k` pairwise edge-disjoint paths, greedily shortest-first: repeat
/// { find BFS shortest path avoiding all previously used edges }. This is
/// the "K disjoint shortest paths" selection used in the paper's evaluation.
/// None if src == dst.
[[nodiscard]] std::vector<Path> edge_disjoint_paths(const Graph& g,
                                                    NodeId src, NodeId dst,
                                                    int k);

}  // namespace spider
