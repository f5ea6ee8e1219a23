// Unweighted (hop-count) shortest paths: what the evaluated routing schemes
// use ("K shortest paths", landmark legs, SpeedyMurmurs' underlying trees).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace spider {

/// Per-edge blocked mask indexed by EdgeId: a nonzero entry treats the edge
/// as absent. An empty mask blocks nothing.
using EdgeMask = std::span<const std::uint8_t>;

/// The one hop-count BFS every path search runs on (bfs_path, the
/// edge-disjoint rounds, Yen's spur searches, PathCache::warm's per-source
/// trees). Scratch is sized to the graph once and reused across searches:
/// visit marks are epoch-stamped (a new search is O(1), not O(n)), the
/// frontier is a flat array, and paths are written straight into the
/// caller's Path. Deterministic: adjacency lists are explored in insertion
/// order, so a search that stops at `dst` assigns exactly the parents a full
/// tree from the same source assigns to the nodes it reached. One kernel
/// per thread; the graph must outlive it.
class BfsKernel {
 public:
  explicit BfsKernel(const Graph& g);

  /// Searches from `src`, skipping edges `blocked` marks and treating every
  /// node in `blocked_nodes` as already visited. Stops once `dst` is
  /// discovered; dst == kInvalidNode builds the whole BFS tree. Returns
  /// whether dst was reached (true for a full tree).
  bool run(NodeId src, NodeId dst, EdgeMask blocked = {},
           std::span<const NodeId> blocked_nodes = {});

  /// True if the last run discovered `n` (its source included).
  [[nodiscard]] bool reached(NodeId n) const {
    return stamp_[static_cast<std::size_t>(n)] == epoch_;
  }

  /// Overwrites `out` with the last run's path from its source to `n`,
  /// reusing out's capacity. Requires reached(n).
  void path_to(NodeId n, Path& out) const;

 private:
  const Graph* graph_;
  NodeId src_ = kInvalidNode;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // == epoch_: visited by this run
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeId> queue_;  // each node enters at most once per run
};

/// BFS shortest path by hop count; empty Path if unreachable, the zero-hop
/// path {src} if src == dst. Deterministic: explores adjacency lists in
/// insertion order.
[[nodiscard]] Path bfs_path(const Graph& g, NodeId src, NodeId dst,
                            EdgeMask blocked = {});

}  // namespace spider
