#include "graph/shortest_path.hpp"

#include <algorithm>

namespace spider {

namespace {

/// Overwrites `out` with the parent-chain path src -> dst, filled back to
/// front in place (one walk to size it, one to write it).
void write_path(NodeId src, NodeId dst, const std::vector<NodeId>& parent,
                const std::vector<EdgeId>& parent_edge, Path& out) {
  std::size_t hops = 0;
  for (NodeId cur = dst; cur != src;
       cur = parent[static_cast<std::size_t>(cur)])
    ++hops;
  out.nodes.resize(hops + 1);
  out.edges.resize(hops);
  NodeId cur = dst;
  for (std::size_t i = hops; i > 0; --i) {
    out.nodes[i] = cur;
    out.edges[i - 1] = parent_edge[static_cast<std::size_t>(cur)];
    cur = parent[static_cast<std::size_t>(cur)];
  }
  out.nodes[0] = src;
}

}  // namespace

BfsKernel::BfsKernel(const Graph& g)
    : graph_(&g),
      stamp_(static_cast<std::size_t>(g.num_nodes()), 0),
      parent_(static_cast<std::size_t>(g.num_nodes()), kInvalidNode),
      parent_edge_(static_cast<std::size_t>(g.num_nodes()), kInvalidEdge),
      near_dst_(static_cast<std::size_t>(g.num_nodes())),
      queue_(static_cast<std::size_t>(g.num_nodes())) {}

bool BfsKernel::run(NodeId src, NodeId dst, EdgeMask blocked,
                    std::span<const NodeId> blocked_nodes) {
  SPIDER_ASSERT(src >= 0 && src < graph_->num_nodes());
  SPIDER_ASSERT(dst == kInvalidNode ||
                (dst >= 0 && dst < graph_->num_nodes()));
  SPIDER_ASSERT(blocked.empty() ||
                blocked.size() >= static_cast<std::size_t>(
                                      graph_->num_edges()));
  if (++epoch_ == 0) {  // stamps wrapped: clear them once every 2^32 runs
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(near_dst_.begin(), near_dst_.end(), NearDst{});
    epoch_ = 1;
  }
  for (const NodeId n : blocked_nodes)
    stamp_[static_cast<std::size_t>(n)] = epoch_;
  src_ = src;
  stamp_[static_cast<std::size_t>(src)] = epoch_;
  if (src == dst) return true;
  // The first node the search dequeues among dst's open neighbours is the
  // one that would discover dst, over its first open edge to dst. Queue
  // order is discovery order, so that node is the first neighbour
  // discovered (or src), and the search can stop there instead of
  // scanning on to its dequeue. Both endpoints list a channel's parallel
  // copies in id order, so dst's first open edge to a neighbour is the
  // neighbour's first open edge to dst.
  const auto reach_dst = [&](NodeId via) {
    const auto d = static_cast<std::size_t>(dst);
    stamp_[d] = epoch_;
    parent_[d] = via;
    parent_edge_[d] = near_dst_[static_cast<std::size_t>(via)].edge;
    return true;
  };
  if (dst != kInvalidNode) {
    if (stamp_[static_cast<std::size_t>(dst)] == epoch_)
      return false;  // dst is one of blocked_nodes
    for (const Graph::Adjacency& adj : graph_->neighbors(dst)) {
      if (!blocked.empty() && blocked[static_cast<std::size_t>(adj.edge)])
        continue;
      NearDst& near = near_dst_[static_cast<std::size_t>(adj.peer)];
      if (near.epoch != epoch_) near = {epoch_, adj.edge};
    }
    if (near_dst_[static_cast<std::size_t>(src)].epoch == epoch_)
      return reach_dst(src);
  }
  std::size_t head = 0;
  std::size_t tail = 0;
  queue_[tail++] = src;
  while (head < tail) {
    const NodeId u = queue_[head++];
    for (const Graph::Adjacency& adj : graph_->neighbors(u)) {
      if (!blocked.empty() && blocked[static_cast<std::size_t>(adj.edge)])
        continue;
      const auto v = static_cast<std::size_t>(adj.peer);
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      parent_[v] = u;
      parent_edge_[v] = adj.edge;
      if (near_dst_[v].epoch == epoch_) return reach_dst(adj.peer);
      queue_[tail++] = adj.peer;
    }
  }
  return dst == kInvalidNode;
}

void BfsKernel::path_to(NodeId n, Path& out) const {
  SPIDER_ASSERT(reached(n));
  write_path(src_, n, parent_, parent_edge_, out);
}

Path bfs_path(const Graph& g, NodeId src, NodeId dst, EdgeMask blocked) {
  SPIDER_ASSERT(dst >= 0 && dst < g.num_nodes());
  BfsKernel kernel(g);
  Path p;
  if (kernel.run(src, dst, blocked)) kernel.path_to(dst, p);
  return p;
}

}  // namespace spider
