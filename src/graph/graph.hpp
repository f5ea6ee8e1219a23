// The payment-channel network topology.
//
// A payment channel is an *undirected* edge between two nodes with a total
// capacity (the escrowed funds). How the capacity is split between the two
// directions is runtime state and lives in sim::Network; this module is the
// topology that routing algorithms compute paths on.
//
// Parallel edges are permitted (the paper notes two nodes may open several
// smaller channels to allow incremental rebalancing); self-loops are not.
//
// Dynamic topology: edge ids are append-only and never recycled. add_edge
// may be called at any time; close_edge marks an edge closed and removes it
// from the adjacency lists, so every traversal (BFS, Yen, max-flow, tree
// embeddings) skips closed channels automatically while id-indexed side
// tables (channels, balances, path caches) stay valid. A closed edge's
// Edge record survives — settle/refund paths still resolve endpoints —
// but it never reappears in neighbors() and counts in closed_edge_count().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/amount.hpp"
#include "util/assert.hpp"

namespace spider {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

class Graph {
 public:
  struct Edge {
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    Amount capacity = 0;  // total escrowed funds on the channel
    bool closed = false;  // closed channels keep their id but are unroutable
  };

  struct Adjacency {
    EdgeId edge = kInvalidEdge;
    NodeId peer = kInvalidNode;
  };

  Graph() = default;
  explicit Graph(NodeId num_nodes);

  /// Adds an undirected channel; returns its id. Requires a != b, both valid,
  /// capacity >= 0.
  EdgeId add_edge(NodeId a, NodeId b, Amount capacity);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(adjacency_.size());
  }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    SPIDER_ASSERT(e >= 0 && e < num_edges());
    return edges_[static_cast<std::size_t>(e)];
  }

  /// The endpoint of `e` that is not `n`. Requires n to be an endpoint.
  [[nodiscard]] NodeId other_end(EdgeId e, NodeId n) const;

  /// 0 if `n` is endpoint `a` of the edge, 1 if endpoint `b`. The sim uses
  /// this to index per-direction balances.
  [[nodiscard]] int side_of(EdgeId e, NodeId n) const;

  [[nodiscard]] const std::vector<Adjacency>& neighbors(NodeId n) const {
    SPIDER_ASSERT(n >= 0 && n < num_nodes());
    return adjacency_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] std::size_t degree(NodeId n) const {
    return neighbors(n).size();
  }

  /// Lowest-id OPEN edge between a and b, if any (closed edges left the
  /// adjacency lists).
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId a, NodeId b) const;

  /// Marks `e` closed and removes it from both endpoints' adjacency lists.
  /// Requires the edge to be open. The edge id stays valid for endpoint
  /// lookups (edge(), other_end(), side_of()).
  void close_edge(EdgeId e);

  [[nodiscard]] bool edge_closed(EdgeId e) const { return edge(e).closed; }

  /// Number of edges close_edge() has retired. 0 means the topology has
  /// never lost a channel — the fast path generation-aware caches key on.
  [[nodiscard]] EdgeId closed_edge_count() const { return closed_edges_; }

  /// num_edges() minus the closed ones.
  [[nodiscard]] EdgeId open_edge_count() const {
    return num_edges() - closed_edges_;
  }

  /// Overwrites one edge's recorded capacity (experiments that resize a
  /// single channel; the runtime escrow lives in sim::Network).
  void set_edge_capacity(EdgeId e, Amount capacity);

  /// Overwrites the capacity of every edge (used by experiments that sweep
  /// per-link capacity).
  void set_uniform_capacity(Amount capacity);

  /// Σ capacity over OPEN edges (closed channels returned their escrow).
  [[nodiscard]] Amount total_capacity() const;

  /// True if every node can reach every other node.
  [[nodiscard]] bool is_connected() const;

  /// Serialization: "n m" header line then one "a b capacity_millis" line per
  /// edge. parse() throws std::runtime_error on malformed input.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Graph parse(const std::string& text);

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
  EdgeId closed_edges_ = 0;
};

/// A simple path (trail) through the graph. nodes.size() == edges.size() + 1;
/// edges[i] connects nodes[i] and nodes[i+1].
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  /// Memo of path_hash: 0 = not computed. Stored candidate paths (the
  /// PathCache arena, the churn delta) and the engine's chunk copies of
  /// them carry it stamped (stamp_key), so per-path lookups on the hot path
  /// never re-walk the edge list. Code that edits a stamped path's edges
  /// must re-stamp or clear it.
  std::uint64_t key = 0;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
  /// Number of hops (edges).
  [[nodiscard]] std::size_t length() const { return edges.size(); }
  [[nodiscard]] NodeId source() const {
    SPIDER_ASSERT(!nodes.empty());
    return nodes.front();
  }
  [[nodiscard]] NodeId destination() const {
    SPIDER_ASSERT(!nodes.empty());
    return nodes.back();
  }

  /// Content equality: the key memo is derived state and is not compared.
  bool operator==(const Path& other) const {
    return nodes == other.nodes && edges == other.edges;
  }
};

/// FNV-1a over an edge sequence.
[[nodiscard]] inline std::uint64_t edge_sequence_hash(
    std::span<const EdgeId> edges) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const EdgeId e : edges) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(e));
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the path's edge sequence: the one key that identifies a path
/// for the engine's retry blacklist and the transport's per-path state.
/// Edge ids are append-only, so a key names one path for a run's lifetime.
/// Returns the stamped Path::key when set (stored paths are stamped once,
/// when they enter the store), else hashes the edges.
[[nodiscard]] inline std::uint64_t path_hash(const Path& path) {
  return path.key != 0 ? path.key : edge_sequence_hash(path.edges);
}

/// Computes and stores `path`'s key memo. Paths whose hash is 0 stay
/// unstamped and are simply rehashed on every path_hash call.
inline void stamp_key(Path& path) { path.key = edge_sequence_hash(path.edges); }

/// The (src, dst) pair as one u64 key: src in the high half, dst low.
[[nodiscard]] inline std::uint64_t pair_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Builds a Path from a node sequence, resolving each consecutive pair to the
/// lowest-id connecting edge. Requires every consecutive pair to be adjacent.
[[nodiscard]] Path make_path(const Graph& g,
                             const std::vector<NodeId>& nodes);

/// Validates internal consistency (sizes, adjacency, no repeated edges).
[[nodiscard]] bool is_valid_trail(const Graph& g, const Path& p);

}  // namespace spider
