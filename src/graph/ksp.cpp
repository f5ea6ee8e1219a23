#include "graph/ksp.hpp"

#include <algorithm>
#include <set>

namespace spider {

KspSearch::KspSearch(const Graph& g)
    : graph_(&g),
      kernel_(g),
      blocked_(static_cast<std::size_t>(g.num_edges()), 0) {}

std::vector<Path> KspSearch::edge_disjoint(Path first, int k) {
  SPIDER_ASSERT(k >= 1 && !first.empty());
  const NodeId src = first.source();
  const NodeId dst = first.destination();
  // Exact early exit: every path spends one unused edge at each endpoint,
  // so once either endpoint has none left the next BFS would fail anyway.
  const std::size_t limit = std::min({static_cast<std::size_t>(k),
                                      graph_->degree(src),
                                      graph_->degree(dst)});
  std::vector<Path> result;
  result.reserve(limit);
  result.push_back(std::move(first));
  while (result.size() < limit) {
    for (const EdgeId e : result.back().edges)
      blocked_[static_cast<std::size_t>(e)] = 1;
    if (!kernel_.run(src, dst, blocked_)) break;
    kernel_.path_to(dst, result.emplace_back());
  }
  for (const Path& p : result)
    for (const EdgeId e : p.edges) blocked_[static_cast<std::size_t>(e)] = 0;
  return result;
}

std::vector<Path> KspSearch::yen(Path first, int k) {
  SPIDER_ASSERT(k >= 1 && !first.empty());
  const NodeId dst = first.destination();
  std::vector<Path> result;
  result.push_back(std::move(first));

  // Candidate set ordered by (length, node sequence) for determinism.
  auto cmp = [](const Path& x, const Path& y) {
    if (x.length() != y.length()) return x.length() < y.length();
    return x.nodes < y.nodes;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);
  Path spur_path;

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) is a spur node; the
    // root is prev.nodes[0..i].
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const auto root_end =
          prev.nodes.begin() + static_cast<std::ptrdiff_t>(i) + 1;

      // Edges leaving the spur node along any accepted path sharing this
      // root must be excluded, as must every interior root node (keeps
      // spur paths loopless w.r.t. the root).
      banned_.clear();
      for (const Path& p : result) {
        if (p.edges.size() > i &&
            std::equal(prev.nodes.begin(), root_end, p.nodes.begin())) {
          banned_.push_back(p.edges[i]);
          blocked_[static_cast<std::size_t>(p.edges[i])] = 1;
        }
      }
      const bool found = kernel_.run(prev.nodes[i], dst, blocked_,
                                     {prev.nodes.data(), i});
      for (const EdgeId e : banned_) blocked_[static_cast<std::size_t>(e)] = 0;
      if (!found) continue;
      kernel_.path_to(dst, spur_path);

      Path total;
      total.nodes.reserve(i + spur_path.nodes.size());
      total.nodes.assign(prev.nodes.begin(), root_end);
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin() + 1,
                         spur_path.nodes.end());
      total.edges.reserve(i + spur_path.edges.size());
      total.edges.assign(prev.edges.begin(),
                         prev.edges.begin() + static_cast<std::ptrdiff_t>(i));
      total.edges.insert(total.edges.end(), spur_path.edges.begin(),
                         spur_path.edges.end());
      if (std::find(result.begin(), result.end(), total) == result.end())
        candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

namespace {

/// The shared front end of the two free functions: the pair's first path,
/// or nothing when there is no pair to route (k == 0, src == dst,
/// unreachable).
[[nodiscard]] Path first_path(const Graph& g, NodeId src, NodeId dst,
                              int k) {
  SPIDER_ASSERT(k >= 0);
  SPIDER_ASSERT(src >= 0 && src < g.num_nodes());
  if (k == 0 || src == dst) return {};
  return bfs_path(g, src, dst);
}

}  // namespace

std::vector<Path> yen_k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                       int k) {
  Path first = first_path(g, src, dst, k);
  if (first.empty()) return {};
  return KspSearch(g).yen(std::move(first), k);
}

std::vector<Path> edge_disjoint_paths(const Graph& g, NodeId src, NodeId dst,
                                      int k) {
  Path first = first_path(g, src, dst, k);
  if (first.empty()) return {};
  return KspSearch(g).edge_disjoint(std::move(first), k);
}

}  // namespace spider
