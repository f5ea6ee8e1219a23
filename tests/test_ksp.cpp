// Unit and property tests for K-shortest-path selection (Yen's algorithm and
// greedy edge-disjoint paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

#include "core/scenario.hpp"
#include "graph/ksp.hpp"
#include "graph/shortest_path.hpp"
#include "routing/path_cache.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

TEST(Yen, FirstPathIsShortest) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = yen_k_shortest_paths(g, 8, 20, 4);
  ASSERT_FALSE(paths.empty());
  const Path direct = bfs_path(g, 8, 20);
  EXPECT_EQ(paths.front().length(), direct.length());
}

TEST(Yen, PathsAreSortedDistinctValidTrails) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = yen_k_shortest_paths(g, 9, 27, 6);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<NodeId>> seen;
  std::size_t prev_len = 0;
  for (const Path& p : paths) {
    EXPECT_TRUE(is_valid_trail(g, p));
    EXPECT_EQ(p.source(), 9);
    EXPECT_EQ(p.destination(), 27);
    EXPECT_GE(p.length(), prev_len);
    prev_len = p.length();
    EXPECT_TRUE(seen.insert(p.nodes).second) << "duplicate path";
  }
}

TEST(Yen, RingHasExactlyTwoPaths) {
  const Graph g = ring_topology(6, 1);
  const auto paths = yen_k_shortest_paths(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 2u);  // clockwise and counter-clockwise only
  EXPECT_EQ(paths[0].length(), 3u);
  EXPECT_EQ(paths[1].length(), 3u);
}

TEST(Yen, LineHasExactlyOnePath) {
  const Graph g = line_topology(5, 1);
  const auto paths = yen_k_shortest_paths(g, 0, 4, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 4u);
}

TEST(Yen, KZeroReturnsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 2, 0).empty());
}

TEST(Yen, UnreachableReturnsNothing) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 3, 3).empty());
}

TEST(Yen, SelfPairReturnsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(yen_k_shortest_paths(g, 2, 2, 4).empty());
}

TEST(Yen, CompleteGraphCounts) {
  const Graph g = complete_topology(5, 1);
  // K5 paths 0->4 sorted by length: 1 direct, 3 two-hop, then longer.
  const auto paths = yen_k_shortest_paths(g, 0, 4, 4);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].length(), 1u);
  EXPECT_EQ(paths[1].length(), 2u);
  EXPECT_EQ(paths[2].length(), 2u);
  EXPECT_EQ(paths[3].length(), 2u);
}

TEST(EdgeDisjoint, PathsShareNoEdges) {
  const Graph g = isp_topology(xrp(100));
  const auto paths = edge_disjoint_paths(g, 10, 25, 4);
  ASSERT_GE(paths.size(), 2u);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    EXPECT_TRUE(is_valid_trail(g, p));
    for (EdgeId e : p.edges) EXPECT_TRUE(used.insert(e).second);
  }
}

TEST(EdgeDisjoint, ShortestFirstAndBounded) {
  const Graph g = isp_topology(xrp(100));
  const Path direct = bfs_path(g, 12, 30);
  const auto paths = edge_disjoint_paths(g, 12, 30, 4);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().length(), direct.length());
  EXPECT_LE(paths.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_GE(paths[i].length(), paths[i - 1].length());
}

TEST(EdgeDisjoint, LineYieldsSinglePath) {
  const Graph g = line_topology(6, 1);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 5, 4).size(), 1u);
}

TEST(EdgeDisjoint, DiamondYieldsTwo) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 1);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 3, 4).size(), 2u);
}

TEST(EdgeDisjoint, SelfPairReturnsNothing) {
  const Graph g = ring_topology(5, 1);
  EXPECT_TRUE(edge_disjoint_paths(g, 2, 2, 4).empty());
}

TEST(EdgeDisjoint, CountBoundedByMinDegree) {
  const Graph g = ripple_like_topology(60, xrp(100), 4);
  for (NodeId s : {0, 10, 35}) {
    for (NodeId t : {50, 59}) {
      const auto paths = edge_disjoint_paths(g, s, t, 8);
      EXPECT_LE(paths.size(),
                std::min(g.degree(s), g.degree(t)));
    }
  }
}

/// Property sweep: on random graphs, both selections return valid, correctly
/// terminated trails, and edge-disjoint paths never share edges.
class PathSelectionProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PathSelectionProperty, RandomGraphInvariants) {
  Rng rng(GetParam());
  const Graph g = erdos_renyi_topology(24, 0.12, xrp(10), rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 23));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, 23));
    if (dst == src) dst = (dst + 1) % 24;

    const auto disjoint = edge_disjoint_paths(g, src, dst, 4);
    std::set<EdgeId> used;
    for (const Path& p : disjoint) {
      EXPECT_TRUE(is_valid_trail(g, p));
      EXPECT_EQ(p.source(), src);
      EXPECT_EQ(p.destination(), dst);
      for (EdgeId e : p.edges) EXPECT_TRUE(used.insert(e).second);
    }

    const auto yen = yen_k_shortest_paths(g, src, dst, 4);
    EXPECT_GE(yen.size(), std::min<std::size_t>(1, disjoint.size()));
    for (const Path& p : yen) {
      EXPECT_TRUE(is_valid_trail(g, p));
      EXPECT_EQ(p.source(), src);
      EXPECT_EQ(p.destination(), dst);
    }
    // Yen explores a superset of routes: its k-th path is never longer than
    // the k-th edge-disjoint path.
    for (std::size_t i = 0; i < std::min(yen.size(), disjoint.size()); ++i)
      EXPECT_LE(yen[i].length(), disjoint[i].length());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSelectionProperty,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Shared BFS kernel vs the std::queue + std::function searches it replaced.
// ---------------------------------------------------------------------------

namespace oracle {

using EdgeFilter = std::function<bool(EdgeId)>;

Path bfs_path(const Graph& g, NodeId src, NodeId dst,
              const EdgeFilter& filter = nullptr) {
  if (src == dst) return Path{{src}, {}};
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> frontier;
  frontier.push(src);
  seen[static_cast<std::size_t>(src)] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Graph::Adjacency& adj : g.neighbors(u)) {
      if (filter && !filter(adj.edge)) continue;
      if (seen[static_cast<std::size_t>(adj.peer)]) continue;
      seen[static_cast<std::size_t>(adj.peer)] = 1;
      parent[static_cast<std::size_t>(adj.peer)] = u;
      parent_edge[static_cast<std::size_t>(adj.peer)] = adj.edge;
      if (adj.peer != dst) {
        frontier.push(adj.peer);
        continue;
      }
      std::vector<NodeId> rev_nodes{dst};
      std::vector<EdgeId> rev_edges;
      for (NodeId cur = dst; cur != src;) {
        rev_edges.push_back(parent_edge[static_cast<std::size_t>(cur)]);
        cur = parent[static_cast<std::size_t>(cur)];
        rev_nodes.push_back(cur);
      }
      Path p;
      p.nodes.assign(rev_nodes.rbegin(), rev_nodes.rend());
      p.edges.assign(rev_edges.rbegin(), rev_edges.rend());
      return p;
    }
  }
  return Path{};
}

std::vector<Path> edge_disjoint_paths(const Graph& g, NodeId src,
                                      NodeId dst, int k) {
  std::vector<Path> result;
  std::vector<char> used(static_cast<std::size_t>(g.num_edges()), 0);
  const auto filter = [&](EdgeId e) {
    return !used[static_cast<std::size_t>(e)];
  };
  for (int i = 0; i < k; ++i) {
    Path p = oracle::bfs_path(g, src, dst, filter);
    if (p.empty()) break;
    for (EdgeId e : p.edges) used[static_cast<std::size_t>(e)] = 1;
    result.push_back(std::move(p));
  }
  return result;
}

std::vector<Path> yen_k_shortest_paths(const Graph& g, NodeId src,
                                       NodeId dst, int k) {
  std::vector<Path> result;
  if (k == 0) return result;
  Path first = oracle::bfs_path(g, src, dst);
  if (first.empty()) return result;
  result.push_back(std::move(first));
  auto cmp = [](const Path& x, const Path& y) {
    if (x.length() != y.length()) return x.length() < y.length();
    return x.nodes < y.nodes;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const NodeId spur = prev.nodes[i];
      const std::vector<NodeId> root_nodes(
          prev.nodes.begin(),
          prev.nodes.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      std::set<EdgeId> banned_edges;
      for (const Path& p : result)
        if (p.nodes.size() > i &&
            std::equal(root_nodes.begin(), root_nodes.end(),
                       p.nodes.begin()) &&
            p.edges.size() > i)
          banned_edges.insert(p.edges[i]);
      std::vector<char> banned_node(static_cast<std::size_t>(g.num_nodes()),
                                    0);
      for (std::size_t j = 0; j < i; ++j)
        banned_node[static_cast<std::size_t>(root_nodes[j])] = 1;
      const auto filter = [&](EdgeId e) {
        if (banned_edges.count(e) > 0) return false;
        const Graph::Edge& ed = g.edge(e);
        return !banned_node[static_cast<std::size_t>(ed.a)] &&
               !banned_node[static_cast<std::size_t>(ed.b)];
      };
      const Path spur_path = oracle::bfs_path(g, spur, dst, filter);
      if (spur_path.empty()) continue;
      Path total;
      total.nodes = root_nodes;
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin() + 1,
                         spur_path.nodes.end());
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

}  // namespace oracle

/// Copies `part` into `into` with node ids shifted by `offset`.
void append_component(Graph& into, const Graph& part, NodeId offset) {
  for (EdgeId e = 0; e < part.num_edges(); ++e) {
    const Graph::Edge& edge = part.edge(e);
    into.add_edge(edge.a + offset, edge.b + offset, edge.capacity);
  }
}

/// A seeded random graph: a BA and an Erdős–Rényi component side by side
/// (so half the pairs are disconnected), two isolated nodes, a few
/// parallel channels and a few closed ones.
Graph oracle_graph(std::uint64_t seed) {
  Rng rng(seed);
  const Graph ba = barabasi_albert_topology(30, 2, xrp(10), rng);
  const Graph er = erdos_renyi_topology(25, 0.1, xrp(10), rng);
  Graph g(ba.num_nodes() + er.num_nodes() + 2);
  append_component(g, ba, 0);
  append_component(g, er, ba.num_nodes());
  for (int i = 0; i < 6; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    g.add_edge(g.edge(e).a, g.edge(e).b, xrp(5));  // parallel channel
  }
  for (int i = 0; i < 4; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    if (!g.edge_closed(e)) g.close_edge(e);
  }
  return g;
}

class KernelOracle : public testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelOracle, MatchesQueueAndFilterSearches) {
  const Graph g = oracle_graph(GetParam());
  for (NodeId src = 0; src < g.num_nodes(); src += 3) {
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      if (src == dst) continue;
      ASSERT_EQ(bfs_path(g, src, dst), oracle::bfs_path(g, src, dst))
          << src << " -> " << dst;
      for (const int k : {1, 2, 4, 8}) {
        EXPECT_EQ(edge_disjoint_paths(g, src, dst, k),
                  oracle::edge_disjoint_paths(g, src, dst, k))
            << "edge-disjoint k=" << k << " " << src << " -> " << dst;
        EXPECT_EQ(yen_k_shortest_paths(g, src, dst, k),
                  oracle::yen_k_shortest_paths(g, src, dst, k))
            << "yen k=" << k << " " << src << " -> " << dst;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOracle, testing::Values(1, 2, 3, 4));

TEST(BfsKernel, FullTreeParentsMatchEarlyExitSearches) {
  const Graph g = oracle_graph(9);
  BfsKernel tree(g);
  Path from_tree;
  for (NodeId src = 0; src < g.num_nodes(); src += 5) {
    ASSERT_TRUE(tree.run(src, kInvalidNode));
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      const Path direct = bfs_path(g, src, dst);
      ASSERT_EQ(tree.reached(dst), !direct.empty()) << src << " -> " << dst;
      if (!tree.reached(dst)) continue;
      tree.path_to(dst, from_tree);
      EXPECT_EQ(from_tree, direct) << src << " -> " << dst;
    }
  }
}

// ---------------------------------------------------------------------------
// A targeted search stops when it discovers dst's first neighbour. Each
// case checks the kernel against oracle::bfs_path under the same blocked
// edges and nodes, and every node the search reached against a full tree.
// ---------------------------------------------------------------------------

void expect_kernel_matches_oracle(const Graph& g, NodeId src, NodeId dst,
                                  const std::vector<std::uint8_t>& blocked,
                                  const std::vector<NodeId>& blocked_nodes) {
  SCOPED_TRACE(testing::Message() << src << " -> " << dst);
  std::vector<char> banned(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId n : blocked_nodes) banned[static_cast<std::size_t>(n)] = 1;
  const auto open = [&](EdgeId e) {
    if (!blocked.empty() && blocked[static_cast<std::size_t>(e)]) return false;
    const Graph::Edge& ed = g.edge(e);
    return !banned[static_cast<std::size_t>(ed.a)] &&
           !banned[static_cast<std::size_t>(ed.b)];
  };
  const Path expected = oracle::bfs_path(g, src, dst, open);
  BfsKernel kernel(g);
  const bool found = kernel.run(src, dst, blocked, blocked_nodes);
  ASSERT_EQ(found, !expected.empty());
  Path got;
  if (found) {
    kernel.path_to(dst, got);
    EXPECT_EQ(got, expected);
  }
  BfsKernel tree(g);
  ASSERT_TRUE(tree.run(src, kInvalidNode, blocked, blocked_nodes));
  Path from_tree;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!kernel.reached(n) || banned[static_cast<std::size_t>(n)]) continue;
    ASSERT_TRUE(tree.reached(n)) << n;
    kernel.path_to(n, got);
    tree.path_to(n, from_tree);
    EXPECT_EQ(got, from_tree) << n;
  }
}

TEST(BfsKernel, SourceAdjacentToDestinationOverOpenOrBlockedEdge) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 3, 1);
  const EdgeId direct = g.add_edge(0, 3, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 1);
  const EdgeId spare = g.add_edge(3, 0, 1);  // a parallel direct channel
  std::vector<std::uint8_t> blocked(static_cast<std::size_t>(g.num_edges()), 0);
  expect_kernel_matches_oracle(g, 0, 3, blocked, {});
  EXPECT_EQ(bfs_path(g, 0, 3, blocked).edges, std::vector<EdgeId>{direct});
  blocked[static_cast<std::size_t>(direct)] = 1;
  expect_kernel_matches_oracle(g, 0, 3, blocked, {});
  EXPECT_EQ(bfs_path(g, 0, 3, blocked).edges, std::vector<EdgeId>{spare});
  blocked[static_cast<std::size_t>(spare)] = 1;
  expect_kernel_matches_oracle(g, 0, 3, blocked, {});
  EXPECT_EQ(bfs_path(g, 0, 3, blocked).nodes, (std::vector<NodeId>{0, 1, 3}));
  expect_kernel_matches_oracle(g, 0, 3, blocked, {1});
  EXPECT_EQ(bfs_path(g, 3, 0, blocked).nodes, (std::vector<NodeId>{3, 1, 0}));
}

TEST(BfsKernel, ParallelChannelsWhoseFirstCopyIntoDestinationIsBlocked) {
  Graph g(5);
  const EdgeId hop = g.add_edge(0, 1, 1);
  const EdgeId first = g.add_edge(1, 4, 1);
  g.add_edge(1, 2, 1);  // lies between the copies in 1's adjacency
  const EdgeId second = g.add_edge(4, 1, 1);
  const EdgeId third = g.add_edge(1, 4, 1);
  g.add_edge(0, 3, 1);
  g.add_edge(3, 4, 1);
  std::vector<std::uint8_t> blocked(static_cast<std::size_t>(g.num_edges()), 0);
  for (const EdgeId copy : {first, second}) {
    blocked[static_cast<std::size_t>(copy)] = 1;
    expect_kernel_matches_oracle(g, 0, 4, blocked, {});
  }
  EXPECT_EQ(bfs_path(g, 0, 4, blocked).edges,
            (std::vector<EdgeId>{hop, third}));
  g.close_edge(second);  // a closure keeps the other copies' order
  blocked[static_cast<std::size_t>(first)] = 0;
  expect_kernel_matches_oracle(g, 0, 4, blocked, {});
  EXPECT_EQ(bfs_path(g, 0, 4, blocked).edges,
            (std::vector<EdgeId>{hop, first}));
}

TEST(BfsKernel, BlockedNodesThatNeighbourTheDestination) {
  Graph g(6);
  for (const NodeId mid : {1, 2, 3}) {
    g.add_edge(0, mid, 1);
    g.add_edge(mid, 5, 1);
  }
  g.add_edge(0, 4, 1);
  g.add_edge(4, 3, 1);
  const std::vector<std::uint8_t> none;
  expect_kernel_matches_oracle(g, 0, 5, none, {1});
  expect_kernel_matches_oracle(g, 0, 5, none, {1, 2});
  expect_kernel_matches_oracle(g, 0, 5, none, {3, 1});
  expect_kernel_matches_oracle(g, 4, 5, none, {0, 3});  // 3 is 4's only way
  expect_kernel_matches_oracle(g, 0, 5, none, {5});     // dst itself
  BfsKernel kernel(g);
  const std::vector<NodeId> all_but_three{1, 2};
  ASSERT_TRUE(kernel.run(0, 5, none, all_but_three));
  Path p;
  kernel.path_to(5, p);
  EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 3, 5}));
  const std::vector<NodeId> every_neighbour{1, 2, 3};
  EXPECT_FALSE(kernel.run(0, 5, none, every_neighbour));
}

TEST(BfsKernel, UnreachableDestination) {
  Graph g(6);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(3, 4, 1);  // 3-4 and the isolated 5 are cut off from 0
  const EdgeId only = g.add_edge(2, 0, 1);
  std::vector<std::uint8_t> blocked(static_cast<std::size_t>(g.num_edges()), 0);
  for (const NodeId dst : {3, 4, 5}) {
    expect_kernel_matches_oracle(g, 0, dst, blocked, {});
    EXPECT_TRUE(bfs_path(g, 0, dst).empty());
  }
  blocked[1] = 1;  // 1-2
  blocked[static_cast<std::size_t>(only)] = 1;
  expect_kernel_matches_oracle(g, 0, 2, blocked, {});
  EXPECT_TRUE(bfs_path(g, 0, 2, blocked).empty());
  expect_kernel_matches_oracle(g, 1, 2, {}, {0});
}

class KernelEarlyExitOracle : public testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEarlyExitOracle, RandomMasksAndBlockedNodes) {
  const Graph g = oracle_graph(GetParam());
  Rng rng(GetParam() * 7919);
  std::vector<std::uint8_t> blocked(static_cast<std::size_t>(g.num_edges()));
  std::vector<NodeId> blocked_nodes;
  for (NodeId src = 0; src < g.num_nodes(); src += 2) {
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      if (src == dst) continue;
      for (std::uint8_t& b : blocked) b = rng.uniform() < 0.2 ? 1 : 0;
      blocked_nodes.clear();
      // Yen bans a prefix of the previous path; bias the bans towards
      // dst's neighbours, where the early exit decides.
      for (const Graph::Adjacency& adj : g.neighbors(dst))
        if (adj.peer != src && rng.uniform() < 0.3)
          blocked_nodes.push_back(adj.peer);
      const auto extra =
          static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
      if (extra != src && extra != dst) blocked_nodes.push_back(extra);
      expect_kernel_matches_oracle(g, src, dst, blocked, blocked_nodes);
      expect_kernel_matches_oracle(g, src, dst, blocked, {});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEarlyExitOracle,
                         testing::Values(1, 2, 3));

/// FNV-1a over the stored paths of `pairs` (first-named order): each
/// pair's path count, then every path's nodes and edges.
std::uint64_t store_digest(
    const PathCache& store,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  };
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& pair : pairs) {
    if (!seen.insert(pair).second) continue;
    const auto paths = store.find(pair.first, pair.second);
    EXPECT_TRUE(paths.has_value());
    if (!paths) continue;
    mix(static_cast<std::int64_t>(paths->size()));
    for (const Path& p : *paths) {
      mix(static_cast<std::int64_t>(p.nodes.size()));
      for (const NodeId n : p.nodes) mix(n);
      for (const EdgeId e : p.edges) mix(e);
    }
  }
  return h;
}

TEST(WarmGolden, BenchmarkShapedStoreSurvivesRefactors) {
  // The path warm of the repository benchmark's replay shape (5k payments
  // on a 250-node ripple-like graph, k = 4); digests recorded before the
  // targeted search learned to stop at dst's first neighbour.
  ScenarioParams params;
  params.payments = 5000;
  params.nodes = 250;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  struct Golden {
    PathSelection selection;
    std::size_t pairs;
    std::size_t paths;
    std::uint64_t digest;
  };
  for (const Golden& golden :
       {Golden{PathSelection::kEdgeDisjoint, 4609, 16253,
               8509556881077905092ULL},
        Golden{PathSelection::kYen, 4609, 18436, 13334905562956884873ULL}}) {
    SCOPED_TRACE(path_selection_name(golden.selection));
    PathCache store(scenario.graph, 4, golden.selection);
    store.warm(pairs, 2);
    EXPECT_EQ(store.pair_count(), golden.pairs);
    EXPECT_EQ(store.path_count(), golden.paths);
    EXPECT_EQ(store_digest(store, pairs), golden.digest);
  }
}

}  // namespace
}  // namespace spider
