// Unit tests for the channel graph and shortest-path algorithms.
#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "graph/spanning_tree.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

Graph diamond() {
  // 0-1, 0-2, 1-3, 2-3 (two disjoint 2-hop routes 0->3), plus 1-2 chord.
  Graph g(4);
  g.add_edge(0, 1, xrp(10));
  g.add_edge(0, 2, xrp(10));
  g.add_edge(1, 3, xrp(10));
  g.add_edge(2, 3, xrp(10));
  g.add_edge(1, 2, xrp(10));
  return g;
}

TEST(Graph, ConstructionAndAccessors) {
  Graph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.edge(0).a, 0);
  EXPECT_EQ(g.edge(0).b, 1);
  EXPECT_EQ(g.edge(0).capacity, xrp(10));
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.other_end(0, 0), 1);
  EXPECT_EQ(g.other_end(0, 1), 0);
  EXPECT_EQ(g.side_of(0, 0), 0);
  EXPECT_EQ(g.side_of(0, 1), 1);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 10), AssertionError);   // self loop
  EXPECT_THROW(g.add_edge(0, 5, 10), AssertionError);   // bad node
  EXPECT_THROW(g.add_edge(0, 1, -1), AssertionError);   // negative capacity
}

TEST(Graph, FindEdgePicksLowestId) {
  Graph g(2);
  const EdgeId first = g.add_edge(0, 1, 5);
  g.add_edge(0, 1, 7);  // parallel channel
  ASSERT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_EQ(*g.find_edge(0, 1), first);
  EXPECT_FALSE(g.find_edge(1, 1).has_value());
}

TEST(Graph, SetUniformCapacity) {
  Graph g = diamond();
  g.set_uniform_capacity(xrp(42));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(g.edge(e).capacity, xrp(42));
  EXPECT_EQ(g.total_capacity(), 5 * xrp(42));
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(diamond().is_connected());
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, SerializeParseRoundTrip) {
  const Graph g = diamond();
  const Graph parsed = Graph::parse(g.serialize());
  EXPECT_EQ(parsed.num_nodes(), g.num_nodes());
  ASSERT_EQ(parsed.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(parsed.edge(e).a, g.edge(e).a);
    EXPECT_EQ(parsed.edge(e).b, g.edge(e).b);
    EXPECT_EQ(parsed.edge(e).capacity, g.edge(e).capacity);
  }
}

TEST(Graph, ParseRejectsMalformedInput) {
  EXPECT_THROW(Graph::parse(""), std::runtime_error);
  EXPECT_THROW(Graph::parse("2 1"), std::runtime_error);        // truncated
  EXPECT_THROW(Graph::parse("2 1\n0 0 5\n"), std::runtime_error);  // loop
  EXPECT_THROW(Graph::parse("2 1\n0 9 5\n"), std::runtime_error);  // range
  EXPECT_THROW(Graph::parse("2 1\n0 1 -5\n"), std::runtime_error);
}

TEST(Graph, TopologyFileRoundTrip) {
  const ScopedTempFile file("spider_topo_test.txt");
  const Graph g = diamond();
  save_topology(g, file.path());
  const Graph loaded = load_topology(file.path());
  EXPECT_EQ(loaded.serialize(), g.serialize());
}

TEST(Path, MakePathResolvesEdges) {
  const Graph g = diamond();
  const Path p = make_path(g, {0, 1, 3});
  ASSERT_EQ(p.edges.size(), 2u);
  EXPECT_EQ(p.length(), 2u);
  EXPECT_EQ(p.source(), 0);
  EXPECT_EQ(p.destination(), 3);
  EXPECT_TRUE(is_valid_trail(g, p));
}

TEST(Path, MakePathRejectsNonAdjacent) {
  const Graph g = diamond();
  EXPECT_THROW(make_path(g, {0, 3}), AssertionError);
}

TEST(Path, TrailValidationCatchesRepeatedEdge) {
  const Graph g = diamond();
  Path p = make_path(g, {0, 1, 3});
  p.nodes = {0, 1, 0};
  p.edges = {0, 0};
  EXPECT_FALSE(is_valid_trail(g, p));
}

TEST(Path, EmptyAndTrivial) {
  const Graph g = diamond();
  EXPECT_TRUE(Path{}.empty());
  const Path trivial = make_path(g, {2});
  EXPECT_EQ(trivial.length(), 0u);
  EXPECT_TRUE(is_valid_trail(g, trivial));
}

TEST(Path, HashIsPinnedFnv1aOverEdgeIds) {
  // The blacklist and the transport's per-path state both key on this
  // value; pinning it keeps their shared recipe from drifting.
  Path p;
  p.edges = {3, 0, 7};
  EXPECT_EQ(path_hash(p), 0x8f47db4f2bda6265ULL);
  EXPECT_EQ(path_hash(Path{}), 1469598103934665603ULL);  // FNV offset basis
  p.edges = {7, 0, 3};
  EXPECT_NE(path_hash(p), 0x8f47db4f2bda6265ULL);  // order matters
}

TEST(BfsPath, FindsShortestHopPath) {
  const Graph g = diamond();
  const Path p = bfs_path(g, 0, 3);
  EXPECT_EQ(p.length(), 2u);
  EXPECT_EQ(p.source(), 0);
  EXPECT_EQ(p.destination(), 3);
  EXPECT_TRUE(is_valid_trail(g, p));
}

TEST(BfsPath, SameNode) {
  const Graph g = diamond();
  const Path p = bfs_path(g, 2, 2);
  EXPECT_EQ(p.length(), 0u);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{2});
}

TEST(BfsPath, UnreachableReturnsEmpty) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  EXPECT_TRUE(bfs_path(g, 0, 2).empty());
}

TEST(BfsPath, FilterExcludesEdges) {
  const Graph g = diamond();
  // Block 0-1: forced through 0-2.
  std::vector<std::uint8_t> blocked(static_cast<std::size_t>(g.num_edges()),
                                    0);
  blocked[0] = 1;
  const Path p = bfs_path(g, 0, 3, blocked);
  ASSERT_EQ(p.length(), 2u);
  EXPECT_EQ(p.nodes[1], 2);
}

TEST(SpanningTree, CoversConnectedGraph) {
  const Graph g = isp_topology(xrp(100));
  const SpanningTree tree = bfs_spanning_tree(g, 0);
  EXPECT_EQ(tree.root, 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_TRUE(tree.covers(n));
    if (n != tree.root) {
      EXPECT_NE(tree.parent[static_cast<std::size_t>(n)], kInvalidNode);
    }
  }
}

TEST(SpanningTree, DepthsAreBfsDistances) {
  const Graph g = isp_topology(xrp(100));
  const SpanningTree tree = bfs_spanning_tree(g, 3);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(n)],
              static_cast<int>(bfs_path(g, 3, n).length()));
}

TEST(SpanningTree, TreeDistanceAndPathConsistent) {
  const Graph g = grid_topology(4, 4, 1);
  Rng rng(3);
  const SpanningTree tree = bfs_spanning_tree(g, 5, &rng);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto path = tree_path(tree, u, v);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, tree_distance(tree, u, v));
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
    }
}

TEST(SpanningTree, RandomizedTreesDiffer) {
  // A grid has many equal-length tie-breaks, so shuffled adjacency produces
  // different parent assignments (unlike K_n, where all trees from one root
  // are stars).
  const Graph g = grid_topology(5, 5, 1);
  Rng rng(9);
  const SpanningTree t1 = bfs_spanning_tree(g, 0, &rng);
  const SpanningTree t2 = bfs_spanning_tree(g, 0, &rng);
  EXPECT_NE(t1.parent, t2.parent);
}

}  // namespace
}  // namespace spider
