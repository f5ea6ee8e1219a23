// Greedy release shared by the transport routers (spider-dctcp,
// backpressure): visit the candidate paths in a scheme-chosen order and
// give each as much of the remaining amount as it can carry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "routing/router.hpp"

namespace spider {

/// No per-path cap: balances alone bound each path.
struct NoPathCap {
  Amount operator()(const Path&) const {
    return std::numeric_limits<Amount>::max();
  }
};

/// Caller-owned scratch for plan_greedy. A router keeps one across plans,
/// so a plan allocates nothing but the vector it returns.
struct GreedyPlanScratch {
  struct FirstHopUse {
    EdgeId edge;
    int side;
    Amount used;
  };
  VirtualBalances balances;             // source-queue mode
  std::vector<FirstHopUse> first_hops;  // router-queue mode, this plan's
};

/// Splits `amount` over `paths`, visited in `order` (candidate order when
/// `order` is empty); each path takes min(left, cap(path), available).
///
/// With `first_hop_only` (router-queue mode) "available" is the first
/// hop's balance, net of what earlier paths of this plan drew from the same
/// channel side, like the engine's own dispatch rule: downstream shortfalls
/// queue at routers, and that queueing is the signal both schemes steer by.
/// Otherwise (source-queue mode, where nothing absorbs a shortfall) it is
/// the whole-path bottleneck, tracked in `scratch.balances`.
///
/// cap() runs once per visited path, before any balance is read, and a
/// non-positive cap skips the path.
template <typename Cap = NoPathCap>
std::vector<ChunkPlan> plan_greedy(std::span<const Path> paths,
                                   std::span<const std::size_t> order,
                                   Amount amount, const Network& network,
                                   bool first_hop_only,
                                   GreedyPlanScratch& scratch, Cap cap = {}) {
  if (first_hop_only)
    scratch.first_hops.clear();
  else
    scratch.balances.attach(network);
  std::vector<ChunkPlan> chunks;
  Amount left = amount;
  const std::size_t count = order.empty() ? paths.size() : order.size();
  for (std::size_t i = 0; i < count && left > 0; ++i) {
    const Path& p = paths[order.empty() ? i : order[i]];
    const Amount limit = cap(p);
    if (limit <= 0) continue;
    Amount sendable = 0;
    if (first_hop_only) {
      const EdgeId e = p.edges.front();
      const Channel& ch = network.channel(e);
      const int side = ch.side_of(p.nodes.front());
      Amount avail = ch.balance(side);
      for (const auto& u : scratch.first_hops)
        if (u.edge == e && u.side == side) avail -= u.used;
      sendable = std::min({left, limit, avail});
      if (sendable <= 0) continue;
      scratch.first_hops.push_back({e, side, sendable});
    } else {
      sendable = std::min({left, limit, scratch.balances.path_bottleneck(p)});
      if (sendable <= 0) continue;
      scratch.balances.use(p, sendable);
    }
    // One allocation per non-empty plan: room for every path still ahead.
    if (chunks.empty()) chunks.reserve(count - i);
    chunks.push_back(ChunkPlan{&p, sendable});
    left -= sendable;
  }
  return chunks;
}

}  // namespace spider
