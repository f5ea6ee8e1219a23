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
/// order, so every node a search reaches gets exactly the parent a full
/// tree from the same source (under the same blocks) assigns it. A
/// targeted search stops as soon as it discovers the first node adjacent
/// to `dst`, and links dst to it: the parent and edge the full tree gives
/// dst. One kernel per thread; the graph must outlive it.
class BfsKernel {
 public:
  explicit BfsKernel(const Graph& g);

  /// Searches from `src`, skipping edges `blocked` marks and treating every
  /// node in `blocked_nodes` as already visited. dst == kInvalidNode builds
  /// the whole BFS tree; otherwise the search stops once dst's path is
  /// known. Returns whether dst was reached (true for a full tree, false
  /// if dst is in blocked_nodes).
  bool run(NodeId src, NodeId dst, EdgeMask blocked = {},
           std::span<const NodeId> blocked_nodes = {});

  /// True if the last run discovered `n` (its source included) or `n` is
  /// one of its blocked_nodes. After a targeted run this may be false for
  /// nodes a full tree would reach.
  [[nodiscard]] bool reached(NodeId n) const {
    return stamp_[static_cast<std::size_t>(n)] == epoch_;
  }

  /// Overwrites `out` with the last run's path from its source to `n`,
  /// reusing out's capacity: the full BFS tree's path, for every reached
  /// `n` outside the run's blocked_nodes. Requires reached(n).
  void path_to(NodeId n, Path& out) const;

 private:
  /// A neighbour of the targeted run's dst (epoch == the run's) and its
  /// first open edge to dst.
  struct NearDst {
    std::uint32_t epoch = 0;
    EdgeId edge = kInvalidEdge;
  };

  const Graph* graph_;
  NodeId src_ = kInvalidNode;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // == epoch_: visited by this run
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NearDst> near_dst_;
  std::vector<NodeId> queue_;  // each node enters at most once per run
};

/// BFS shortest path by hop count; empty Path if unreachable, the zero-hop
/// path {src} if src == dst. Deterministic: explores adjacency lists in
/// insertion order.
[[nodiscard]] Path bfs_path(const Graph& g, NodeId src, NodeId dst,
                            EdgeMask blocked = {});

}  // namespace spider
