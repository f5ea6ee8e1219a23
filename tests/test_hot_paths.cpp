// Hot-path regression suite. The event queue's per-kind FIFO lanes plus
// heap fallback must pop in the exact (time, seq) order of a plain
// std::priority_queue, under random delays and under the simulator's delay
// mix (fixed-delay kinds plus a jittered one whose heap pushes tie lane heads
// on time), across reset() and lane growth. The flat path store must return
// byte-identical paths to a direct Yen / edge-disjoint computation
// (including prefix stability for shared stores) with every stored path's
// key stamped as the hash of its edges, and the pooled chunk
// lifecycle + shared path store must leave fixed-seed simulator metrics
// bit-identical run over run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <queue>
#include <span>
#include <string>

#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "graph/ksp.hpp"
#include "routing/path_cache.hpp"
#include "routing/shortest_path_router.hpp"
#include "routing/waterfilling_router.hpp"
#include "sim/event_queue.hpp"
#include "sim/observer.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "transport/dctcp_router.hpp"
#include "util/random.hpp"

namespace spider {
namespace {

// ---------------------------------------------------------------------------
// Event queue (lanes + heap) vs a plain std::priority_queue. The FourAryHeap
// suite name is kept from the 4-ary heap these tests were first written for.
// ---------------------------------------------------------------------------

/// The reference order: std::priority_queue over (time, seq).
class ReferenceQueue {
 public:
  void schedule(TimePoint time, int kind, std::size_t index,
                std::uint64_t stamp = 0) {
    heap_.push(SimEvent{time, next_seq_++, kind, index, stamp});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  SimEvent pop() {
    const SimEvent ev = heap_.top();
    heap_.pop();
    now_ = ev.time;
    return ev;
  }
  [[nodiscard]] TimePoint next_time() const { return heap_.top().time; }
  [[nodiscard]] TimePoint now() const { return now_; }
  void reset(TimePoint start) {
    heap_ = {};
    next_seq_ = 0;
    now_ = start;
  }

 private:
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  TimePoint now_ = 0;
};

void expect_same_event(const SimEvent& a, const SimEvent& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.stamp, b.stamp);
}

TEST(FourAryHeap, MatchesPriorityQueueOrderUnderRandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue reference;
    int scheduled = 0;
    int popped = 0;
    while (popped < 4000) {
      const bool can_pop = !queue.empty();
      // Bias toward scheduling until enough events exist; a random delay
      // per event sends most of them to the heap, and delay 0 puts lane
      // and heap events on the same timestamp.
      if (scheduled < 4000 && (!can_pop || rng.uniform_int(0, 2) != 0)) {
        const auto delay = static_cast<Duration>(rng.uniform_int(0, 4));
        const int kind = static_cast<int>(rng.uniform_int(0, 5));
        const auto index =
            static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
        queue.schedule(queue.now() + delay, kind, index, seed);
        reference.schedule(reference.now() + delay, kind, index, seed);
        ++scheduled;
      } else {
        expect_same_event(queue.pop(), reference.pop());
        ++popped;
      }
    }
    while (!queue.empty()) expect_same_event(queue.pop(), reference.pop());
    EXPECT_TRUE(reference.empty());
  }
}

TEST(FourAryHeap, EqualTimeBurstsPopInInsertionOrder) {
  EventQueue q;
  // A burst at one future timestamp (the settle pattern) must drain FIFO.
  for (int k = 0; k < 64; ++k) q.schedule(1000, k, 0);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(q.pop().kind, k);
}

TEST(FourAryHeap, ScheduleAtNowInterleavesWithHeapEventsBySeq) {
  EventQueue q;
  q.schedule(10, 0, 0);
  (void)q.pop();  // now == 10
  q.schedule(q.now(), 1, 0);
  q.schedule(20, 2, 0);
  q.schedule(q.now(), 3, 0);  // seq after kind-1
  q.schedule(10, 4, 0);
  // Order must be pure (time, seq): kinds 1, 3, 4 at t=10, then 2 at t=20.
  EXPECT_EQ(q.pop().kind, 1);
  EXPECT_EQ(q.pop().kind, 3);
  EXPECT_EQ(q.pop().kind, 4);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_TRUE(q.empty());

  // Same kind: an event at now() behind a later tail leaves the lane for the
  // heap, and still pops by seq among its lane's and other lanes' events.
  q.schedule(30, 1, 0);
  q.schedule(q.now(), 1, 1);  // lane 1's tail is at 30: heap
  q.schedule(q.now(), 2, 0);
  q.schedule(q.now(), 1, 2);  // heap
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_EQ(q.pop().index, 2u);
  const SimEvent last = q.pop();
  EXPECT_EQ(last.time, 30);
  EXPECT_EQ(last.index, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(FourAryHeap, SizeCountsRingAndHeap) {
  EventQueue q;
  q.schedule(5, 0, 0);
  q.schedule(q.now(), 1, 0);  // at time 0
  q.schedule(3, 0, 1);        // lane 0's tail is at 5: heap
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().kind, 1);  // time 0 < 3 < 5
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventLanes, MatchesPriorityQueueOrderUnderSimulatorDelayMix) {
  // Fixed delays per kind, like the simulator's hop, timeout, settle, poll
  // and zero-delay events. Kind 5 is jittered like a fault's extra_delay on
  // the same 50 ms grid, so its heap pushes tie lane heads on time; kind 40
  // has no lane at all.
  constexpr std::array<Duration, 5> kFixed = {100'000, 1'000'000, 50'000,
                                              100'000, 0};
  constexpr int kJittered = 5;
  constexpr int kLaneless = 40;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue reference;
    const auto schedule_one = [&] {
      const int pick = static_cast<int>(rng.uniform_int(0, 6));
      const int kind = pick == 6 ? kLaneless : pick;
      const Duration delay =
          kind < kJittered ? kFixed[static_cast<std::size_t>(kind)]
                           : 50'000 * rng.uniform_int(0, 24);
      const auto index = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
      queue.schedule(queue.now() + delay, kind, index, seed);
      reference.schedule(reference.now() + delay, kind, index, seed);
    };
    for (int step = 0; step < 20000; ++step) {
      if (step == 10000) {
        // Reuse mid-stream, right after a peek: pending events and the
        // cached winner are dropped, the lanes keep their capacity, and the
        // clock restarts from the given time.
        (void)queue.next_time();
        queue.reset(queue.now());
        reference.reset(reference.now());
      }
      if (queue.empty())
        for (int i = 0; i < 64; ++i) schedule_one();
      // Peek first half the time: schedule() after next_time() must update
      // the cached winner when the new event is earlier (delay 0).
      if (rng.uniform_int(0, 1) == 0) {
        ASSERT_EQ(queue.next_time(), reference.next_time());
        schedule_one();
      }
      expect_same_event(queue.pop(), reference.pop());
      // A handler schedules 0-2 follow-ups, holding about 64 pending.
      const std::int64_t follow =
          queue.size() < 64 ? rng.uniform_int(1, 2) : rng.uniform_int(0, 1);
      for (std::int64_t i = 0; i < follow; ++i) schedule_one();
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!queue.empty()) expect_same_event(queue.pop(), reference.pop());
    EXPECT_TRUE(reference.empty());
  }
}

TEST(EventLanes, ResetDropsTheCachedWinner) {
  EventQueue q;
  q.schedule(5, 0, 0);
  EXPECT_EQ(q.next_time(), 5);  // caches lane 0 as the winner
  q.reset();
  q.schedule(9, 1, 1);  // lane 0 is empty now; only lane 1 holds an event
  const SimEvent ev = q.pop();
  EXPECT_EQ(ev.kind, 1);
  EXPECT_EQ(ev.time, 9);
  EXPECT_TRUE(q.empty());
}

TEST(EventLanes, LaneWrapsAndGrowsWhileNonEmpty) {
  EventQueue q;
  // Fill one lane to its first capacity (16), pop most of it so the head
  // sits near the end of the ring, then append past the wrap and past the
  // capacity: the growth must unwrap the ring without losing order.
  for (std::size_t i = 0; i < 16; ++i)
    q.schedule(static_cast<TimePoint>(i), 0, i);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(q.pop().index, i);
  for (std::size_t i = 16; i < 60; ++i)
    q.schedule(static_cast<TimePoint>(i), 0, i);
  for (std::size_t i = 12; i < 60; ++i) {
    const SimEvent ev = q.pop();
    EXPECT_EQ(ev.index, i);
    EXPECT_EQ(ev.time, static_cast<TimePoint>(i));
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Flat path store vs direct computation.
// ---------------------------------------------------------------------------

TEST(FlatPathStore, MatchesDirectComputationOnEveryRegistryScenario) {
  ScenarioParams params;
  params.payments = 150;
  params.nodes = 120;  // keeps ripple-full (default 3774) test-sized
  const ReplayFiles replay = provide_replay_files(params, 150);
  for (const auto& entry : ScenarioRegistry::instance().list()) {
    const ScenarioInstance scenario = build_scenario(entry.name, params);
    for (const PathSelection selection :
         {PathSelection::kEdgeDisjoint, PathSelection::kYen}) {
      PathCache store(scenario.graph, 4, selection);
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (const PaymentSpec& spec : scenario.trace)
        pairs.emplace_back(spec.src, spec.dst);
      store.warm(pairs);
      for (const auto& [src, dst] : pairs) {
        const std::vector<Path> direct =
            selection == PathSelection::kEdgeDisjoint
                ? edge_disjoint_paths(scenario.graph, src, dst, 4)
                : yen_k_shortest_paths(scenario.graph, src, dst, 4);
        const std::span<const Path> stored = store.cached(src, dst);
        ASSERT_EQ(stored.size(), direct.size())
            << entry.name << " " << path_selection_name(selection) << " ("
            << src << " -> " << dst << ")";
        for (std::size_t i = 0; i < direct.size(); ++i)
          EXPECT_EQ(stored[i], direct[i])
              << entry.name << " " << path_selection_name(selection) << " ("
              << src << " -> " << dst << ") path " << i;
      }
    }
  }
}

TEST(FlatPathStore, PrefixOfLargerKMatchesSmallerKComputation) {
  ScenarioParams params;
  params.payments = 80;
  const ScenarioInstance scenario = build_scenario("isp", params);
  for (const PathSelection selection :
       {PathSelection::kEdgeDisjoint, PathSelection::kYen}) {
    PathCache store(scenario.graph, 4, selection);
    for (const PaymentSpec& spec : scenario.trace) {
      const std::span<const Path> four = store.paths(spec.src, spec.dst);
      const std::vector<Path> one =
          selection == PathSelection::kEdgeDisjoint
              ? edge_disjoint_paths(scenario.graph, spec.src, spec.dst, 1)
              : yen_k_shortest_paths(scenario.graph, spec.src, spec.dst, 1);
      // A k=1 consumer reading the first entry of a k=4 store (the
      // CandidatePaths prefix rule) must see exactly the k=1 answer.
      if (one.empty()) {
        EXPECT_TRUE(four.empty());
        continue;
      }
      ASSERT_FALSE(four.empty());
      EXPECT_EQ(four.front(), one.front());
    }
  }
}

TEST(FlatPathStore, LargeGraphMatchesDirectComputation) {
  // Past 4096 nodes an n*n pair table would exceed 128 MB; the store's
  // answers there must still equal a direct computation.
  Graph big(4096 + 8);
  for (NodeId n = 1; n < big.num_nodes(); ++n)
    big.add_edge(n - 1, n, xrp(10));
  PathCache store(big, 2, PathSelection::kEdgeDisjoint);
  const std::span<const Path> stored = store.paths(0, 5);
  const std::vector<Path> direct = edge_disjoint_paths(big, 0, 5, 2);
  ASSERT_EQ(stored.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(stored[i], direct[i]);
  EXPECT_TRUE(store.contains(0, 5));
  EXPECT_FALSE(store.contains(5, 0));
}

/// Resident set size in KiB, or -1 where /proc/self/status is unavailable.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

TEST(FlatPathStore, IndexMemoryTracksStoredPairsAtRippleScale) {
  // At the paper's pruned Ripple snapshot size (3774 nodes) an n*n pair
  // table costs ~111 MB before any path is stored. The store, a router's
  // private fallback cache and its churn verdict memo must each cost memory
  // in proportion to the pairs they hold.
  Graph graph = ripple_like_topology(3774, xrp(100));
  Rng rng(5);
  const auto node = [&] {
    return static_cast<NodeId>(rng.uniform_int(0, graph.num_nodes() - 1));
  };
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 2000; ++i) pairs.emplace_back(node(), node());
  NodeId miss_src = 0;
  NodeId miss_dst = 1;
  const long before = resident_kib();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this platform";

  PathCache store(graph, 4, PathSelection::kEdgeDisjoint);
  store.warm(pairs, 2);
  while (store.contains(miss_src, miss_dst)) ++miss_dst;
  CandidatePaths candidates;
  candidates.init(graph, 4, PathSelection::kEdgeDisjoint, &store);
  EXPECT_EQ(candidates.paths(miss_src, miss_dst).size(),
            edge_disjoint_paths(graph, miss_src, miss_dst, 4).size());
  const auto routed = std::find_if(pairs.begin(), pairs.end(), [&](auto p) {
    return !store.cached(p.first, p.second).empty();
  });
  ASSERT_NE(routed, pairs.end());
  graph.close_edge(
      store.cached(routed->first, routed->second).front().edges.front());
  candidates.sync(1);
  (void)candidates.paths(routed->first, routed->second);
  const long grown_kib = resident_kib() - before;

  EXPECT_GT(store.pair_count(), 1900u);
  EXPECT_LT(grown_kib, 16 * 1024) << "RSS grew " << grown_kib << " KiB";
}

/// `g` plus two extra nodes: an isolated one (n) and a pendant one (n + 1,
/// one channel to node 0) whose single edge exhausts it after one path.
Graph with_isolated_and_pendant(const Graph& g) {
  const NodeId n = g.num_nodes();
  Graph out(n + 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    out.add_edge(g.edge(e).a, g.edge(e).b, g.edge(e).capacity);
  out.add_edge(0, n + 1, xrp(10));
  return out;
}

/// `pairs` plus the awkward cases a warm must store exactly as a serial one:
/// every pair again (duplicates), self-pairs, and pairs touching the
/// isolated (n - 2) and pendant (n - 1) nodes of with_isolated_and_pendant.
std::vector<std::pair<NodeId, NodeId>> awkward_pairs(
    std::vector<std::pair<NodeId, NodeId>> pairs, NodeId n) {
  const std::size_t base = pairs.size();
  for (std::size_t i = 0; i < base; ++i) pairs.push_back(pairs[i]);
  for (NodeId x = 0; x < std::min<NodeId>(n - 2, 12); ++x) {
    pairs.emplace_back(x, x);
    pairs.emplace_back(x, n - 2);
    pairs.emplace_back(n - 2, x);
    pairs.emplace_back(n - 1, x);
    pairs.emplace_back(x, n - 1);
  }
  pairs.emplace_back(n - 1, n - 1);
  return pairs;
}

/// Same pair/path counts, and every pair's span at the same arena offset
/// with the same paths.
void expect_same_store(const PathCache& serial, const PathCache& parallel,
                       std::span<const std::pair<NodeId, NodeId>> pairs,
                       const std::string& label) {
  ASSERT_EQ(parallel.pair_count(), serial.pair_count()) << label;
  ASSERT_EQ(parallel.path_count(), serial.path_count()) << label;
  const auto [src0, dst0] = pairs.front();
  const Path* serial_base = serial.cached(src0, dst0).data();
  const Path* parallel_base = parallel.cached(src0, dst0).data();
  for (const auto& [src, dst] : pairs) {
    ASSERT_EQ(parallel.contains(src, dst), serial.contains(src, dst))
        << label << " (" << src << " -> " << dst << ")";
    if (src == dst) continue;
    const std::span<const Path> a = serial.cached(src, dst);
    const std::span<const Path> b = parallel.cached(src, dst);
    ASSERT_EQ(b.data() - parallel_base, a.data() - serial_base)
        << label << " (" << src << " -> " << dst << ")";
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << label << " (" << src << " -> " << dst << ")";
  }
}

void expect_warm_identical_across_threads(
    const Graph& graph, std::span<const std::pair<NodeId, NodeId>> pairs,
    const std::string& name) {
  for (const PathSelection selection :
       {PathSelection::kEdgeDisjoint, PathSelection::kYen}) {
    PathCache serial(graph, 4, selection);
    serial.warm(pairs, 1);
    for (const unsigned threads : {2u, 4u, 7u}) {
      PathCache parallel(graph, 4, selection);
      parallel.warm(pairs, threads);
      expect_same_store(serial, parallel, pairs,
                        name + " " + path_selection_name(selection) + " x" +
                            std::to_string(threads));
    }
  }
}

TEST(FlatPathStore, ParallelWarmMatchesSerialOnEveryRegistryScenario) {
  ScenarioParams params;
  params.payments = 150;
  params.nodes = 120;  // keeps ripple-full (default 3774) test-sized
  const ReplayFiles replay = provide_replay_files(params, 150);
  for (const auto& entry : ScenarioRegistry::instance().list()) {
    const ScenarioInstance scenario = build_scenario(entry.name, params);
    const Graph graph = with_isolated_and_pendant(scenario.graph);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const PaymentSpec& spec : scenario.trace)
      pairs.emplace_back(spec.src, spec.dst);
    pairs = awkward_pairs(std::move(pairs), graph.num_nodes());
    expect_warm_identical_across_threads(graph, pairs, entry.name);
  }
}

TEST(FlatPathStore, ParallelWarmMatchesSerialOnRippleLike250) {
  const Graph graph =
      with_isolated_and_pendant(ripple_like_topology(250, xrp(100)));
  Rng rng(7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 600; ++i)
    pairs.emplace_back(static_cast<NodeId>(rng.uniform_int(0, 249)),
                       static_cast<NodeId>(rng.uniform_int(0, 249)));
  pairs = awkward_pairs(std::move(pairs), graph.num_nodes());
  expect_warm_identical_across_threads(graph, pairs, "ripple-like-250");
}

TEST(FlatPathStore, WarmIsIncrementalAndLazyMissesMatchWarm) {
  // Warming in two halves, or filling the store through lazy paths()
  // misses, stores the same arena as one warm over the whole list.
  const Graph graph =
      with_isolated_and_pendant(ripple_like_topology(80, xrp(100)));
  Rng rng(3);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 300; ++i)
    pairs.emplace_back(static_cast<NodeId>(rng.uniform_int(0, 79)),
                       static_cast<NodeId>(rng.uniform_int(0, 79)));
  pairs = awkward_pairs(std::move(pairs), graph.num_nodes());
  PathCache whole(graph, 4, PathSelection::kEdgeDisjoint);
  whole.warm(pairs, 4);
  const std::size_t half = pairs.size() / 2;
  PathCache halves(graph, 4, PathSelection::kEdgeDisjoint);
  halves.warm(std::span(pairs).first(half), 3);
  halves.warm(std::span(pairs).subspan(half), 3);
  expect_same_store(whole, halves, pairs, "halves");
  PathCache lazy(graph, 4, PathSelection::kEdgeDisjoint);
  for (const auto& [src, dst] : pairs) (void)lazy.paths(src, dst);
  expect_same_store(whole, lazy, pairs, "lazy");
  const std::size_t paths = whole.path_count();
  whole.warm(pairs, 4);  // nothing missing: a pure read
  EXPECT_EQ(whole.path_count(), paths);
}

TEST(FlatPathStore, FailedWarmLeavesStoreUnchanged) {
  // An out-of-range pair after valid ones rejects the whole warm; the valid
  // pairs stay computable afterwards (no stale pending marks).
  const Graph graph = ring_topology(6, xrp(10));
  PathCache store(graph, 2, PathSelection::kEdgeDisjoint);
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 3}, {1, 4}, {2, 99}};
  EXPECT_THROW(store.warm(pairs, 2), AssertionError);
  EXPECT_EQ(store.pair_count(), 0u);
  EXPECT_FALSE(store.contains(0, 3));
  EXPECT_EQ(store.paths(0, 3).size(), 2u);
  store.warm(std::span(pairs).first(2), 2);
  EXPECT_EQ(store.pair_count(), 2u);
  EXPECT_EQ(store.cached(1, 4).size(), 2u);
  // Refilling in another order after a failure must not meet the failed
  // warm's index entries.
  PathCache reordered(graph, 2, PathSelection::kEdgeDisjoint);
  EXPECT_THROW(reordered.warm(pairs, 2), AssertionError);
  EXPECT_EQ(reordered.paths(1, 4).size(), 2u);
  EXPECT_EQ(reordered.paths(0, 3).size(), 2u);
  EXPECT_EQ(reordered.pair_count(), 2u);
}

/// Every path in `paths` carries a stamped key equal to the hash of its
/// edges, recomputed here from scratch.
void expect_stamped(std::span<const Path> paths, const std::string& label) {
  for (const Path& path : paths) {
    EXPECT_NE(path.key, 0u) << label;
    EXPECT_EQ(path.key, edge_sequence_hash(path.edges)) << label;
  }
}

TEST(FlatPathStore, WarmAndChurnDeltaStampEveryStoredPathKey) {
  Graph graph = with_isolated_and_pendant(ripple_like_topology(90, xrp(100)));
  Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 400; ++i)
    pairs.emplace_back(static_cast<NodeId>(rng.uniform_int(0, 89)),
                       static_cast<NodeId>(rng.uniform_int(0, 89)));
  pairs = awkward_pairs(std::move(pairs), graph.num_nodes());
  for (const PathSelection selection :
       {PathSelection::kEdgeDisjoint, PathSelection::kYen}) {
    const std::string label = path_selection_name(selection);
    PathCache serial(graph, 4, selection);
    serial.warm(pairs, 1);
    PathCache store(graph, 4, selection);
    store.warm(pairs, 4);  // stamped on the worker threads
    ASSERT_GT(store.path_count(), 0u);
    for (const auto& [src, dst] : pairs) {
      const std::span<const Path> a = serial.cached(src, dst);
      const std::span<const Path> b = store.cached(src, dst);
      expect_stamped(b, label);
      ASSERT_EQ(a.size(), b.size()) << label;
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].key, b[i].key) << label;
    }
    // A lazy miss is a one-pair warm: stamped the same way.
    PathCache lazy(graph, 4, selection);
    expect_stamped(lazy.paths(pairs.front().first, pairs.front().second),
                   label + " lazy");
  }

  // Churn: close one channel that some stored path crosses; the pairs
  // recomputed into the generation's delta are stamped too.
  PathCache store(graph, 4, PathSelection::kEdgeDisjoint);
  store.warm(pairs, 2);
  CandidatePaths candidates;
  candidates.init(graph, 4, PathSelection::kEdgeDisjoint, &store);
  const auto [src0, dst0] = pairs.front();
  ASSERT_FALSE(store.cached(src0, dst0).empty());
  graph.close_edge(store.cached(src0, dst0).front().edges.front());
  candidates.sync(1);
  std::size_t recomputed = 0;
  for (const auto& [src, dst] : pairs) {
    const std::span<const Path> paths = candidates.paths(src, dst);
    expect_stamped(paths, "delta");
    if (!paths.empty() && paths.data() != store.cached(src, dst).data())
      ++recomputed;
  }
  EXPECT_GT(recomputed, 0u);
}

/// Checks each locked chunk's path copy against the shared store it was
/// planned from: same content, same stamped key.
class ChunkKeyProbe final : public SimObserver {
 public:
  explicit ChunkKeyProbe(const PathCache& store) : store_(&store) {}
  void on_chunk_locked(const Path& path, Amount, TimePoint) override {
    ++locked;
    EXPECT_EQ(path.key, edge_sequence_hash(path.edges));
    const std::span<const Path> stored =
        store_->cached(path.source(), path.destination());
    const auto it = std::find(stored.begin(), stored.end(), path);
    ASSERT_NE(it, stored.end());
    EXPECT_NE(it->key, 0u);
    EXPECT_EQ(path.key, it->key);
  }
  std::int64_t locked = 0;

 private:
  const PathCache* store_;
};

TEST(FlatPathStore, ChunkCopiesCarryTheKeyAndReleasedSlotsClearIt) {
  ScenarioParams params;
  params.payments = 300;
  params.nodes = 80;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm(pairs, 2);

  SimConfig config = scenario.config.sim;
  config.transport.enabled = true;
  config.queueing = QueueingMode::kRouterQueue;
  Network network(scenario.graph);
  SpiderDctcpRouter router(4);
  init_router_for_run(router, network, config, &scenario.trace, &store);
  Simulator sim(network, router, config);
  ChunkKeyProbe probe(store);
  sim.attach(probe);
  const SimMetrics metrics = sim.run(scenario.trace);
  EXPECT_GT(probe.locked, 0);
  EXPECT_EQ(probe.locked, metrics.chunks_sent);
  // drain() released every chunk: each pooled slot is empty and unkeyed.
  ASSERT_GT(sim.chunk_slot_count(), 0u);
  for (std::size_t slot = 0; slot < sim.chunk_slot_count(); ++slot) {
    EXPECT_TRUE(sim.chunk_slot_path(slot).empty());
    EXPECT_EQ(sim.chunk_slot_path(slot).key, 0u);
  }
}

TEST(FlatPathStore, PathEqualityIgnoresTheKeyMemo) {
  const Graph graph = ring_topology(6, xrp(10));
  Path stamped = make_path(graph, {0, 1, 2});
  const Path plain = stamped;
  stamp_key(stamped);
  ASSERT_NE(stamped.key, plain.key);
  EXPECT_EQ(stamped, plain);
  EXPECT_EQ(path_hash(stamped), path_hash(plain));
  EXPECT_NE(stamped, make_path(graph, {0, 1}));
}

TEST(TrafficGenerator, NeverEmitsSelfPairs) {
  ScenarioParams params;
  params.payments = 3000;
  params.nodes = 50;
  const ScenarioInstance scenario = build_scenario("scale-free", params);
  for (const PaymentSpec& spec : scenario.trace)
    EXPECT_NE(spec.src, spec.dst);
}

// ---------------------------------------------------------------------------
// Pooled chunk lifecycle + shared store: fixed-seed determinism.
// ---------------------------------------------------------------------------

static_assert(std::is_trivially_copyable_v<SimMetrics>);

[[nodiscard]] bool same_bytes(const SimMetrics& a, const SimMetrics& b) {
  return std::memcmp(&a, &b, sizeof(SimMetrics)) == 0;
}

TEST(HotPathDeterminism, FixedSeedMetricsIdenticalOnEveryRegistryScenario) {
  ScenarioParams params;
  params.payments = 250;
  params.nodes = 80;  // keeps ripple-full test-sized
  const ReplayFiles replay = provide_replay_files(params, 250);
  for (const auto& entry : ScenarioRegistry::instance().list()) {
    const ScenarioInstance scenario = build_scenario(entry.name, params);
    const SpiderNetwork net(scenario.graph, scenario.config);
    for (const Scheme scheme :
         {Scheme::kSpiderWaterfilling, Scheme::kShortestPath,
          Scheme::kSpeedyMurmurs}) {
      const SimMetrics first = net.run(scheme, scenario.trace);
      const SimMetrics second = net.run(scheme, scenario.trace);
      EXPECT_TRUE(same_bytes(first, second))
          << entry.name << " / " << scheme_name(scheme);
      EXPECT_GT(first.events_processed, 0u) << entry.name;
      EXPECT_GT(first.plans_requested, 0) << entry.name;
    }
  }
}

TEST(HotPathDeterminism, SharedWarmStoreMatchesPrivateLazyCache) {
  ScenarioParams params;
  params.payments = 400;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  const SimConfig config = scenario.config.sim;

  // Reference: routers with NO shared store (private lazy caches), exactly
  // the pre-overhaul arrangement.
  WaterfillingRouter lazy_wf(4);
  const SimMetrics lazy = run_simulation(scenario.graph, lazy_wf,
                                         scenario.trace, config, nullptr);

  // Shared: one warmed store handed through the init context.
  PathCache store(scenario.graph, 4, PathSelection::kEdgeDisjoint);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const PaymentSpec& spec : scenario.trace)
    pairs.emplace_back(spec.src, spec.dst);
  store.warm(pairs);
  WaterfillingRouter shared_wf(4);
  const SimMetrics shared = run_simulation(scenario.graph, shared_wf,
                                           scenario.trace, config, &store);
  EXPECT_TRUE(same_bytes(lazy, shared));

  // The k=1 consumer through the k=4 shared store (prefix rule).
  ShortestPathRouter lazy_sp;
  ShortestPathRouter shared_sp;
  const SimMetrics lazy1 = run_simulation(scenario.graph, lazy_sp,
                                          scenario.trace, config, nullptr);
  const SimMetrics shared1 = run_simulation(scenario.graph, shared_sp,
                                            scenario.trace, config, &store);
  EXPECT_TRUE(same_bytes(lazy1, shared1));
}

TEST(HotPathDeterminism, RouterQueueModeExercisesPooledQueuesDeterministically) {
  // Small capacity forces router-queue waiting, timeouts, and chunk-slot
  // churn — the intrusive-list and pooled-buffer machinery under stress.
  ScenarioParams params;
  params.payments = 600;
  params.capacity_xrp = 200;
  const ScenarioInstance scenario = build_scenario("small-world", params);
  SimConfig config = scenario.config.sim;
  config.queueing = QueueingMode::kRouterQueue;
  config.queue_timeout = seconds(0.4);

  WaterfillingRouter first_router(4);
  const SimMetrics first = run_simulation(scenario.graph, first_router,
                                          scenario.trace, config);
  WaterfillingRouter second_router(4);
  const SimMetrics second = run_simulation(scenario.graph, second_router,
                                           scenario.trace, config);
  EXPECT_TRUE(same_bytes(first, second));
  // The run must actually have queued and timed out units, or this test
  // is not exercising the intrusive channel queues.
  EXPECT_GT(first.chunks_queued, 0);
  EXPECT_GT(first.queue_timeouts, 0);
}

TEST(HotPathDeterminism, SelfPairPaymentIsTolerated) {
  // The simulator must survive a self-pair in the trace: no candidate
  // paths -> the payment pends and expires, everything else unaffected.
  const ScenarioInstance scenario = build_scenario("isp", [] {
    ScenarioParams p;
    p.payments = 30;
    return p;
  }());
  std::vector<PaymentSpec> trace = scenario.trace;
  PaymentSpec self = trace.front();
  self.dst = self.src;
  trace.push_back(self);
  std::sort(trace.begin(), trace.end(),
            [](const PaymentSpec& a, const PaymentSpec& b) {
              return a.arrival < b.arrival;
            });
  const SpiderNetwork net(scenario.graph, scenario.config);
  const SimMetrics m = net.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_EQ(m.attempted_count, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(m.completed_count + m.expired_count + m.rejected_count,
            m.attempted_count);
  EXPECT_GE(m.expired_count, 1);  // at least the self-pair expired
}

}  // namespace
}  // namespace spider
