#include "sim/network.hpp"

#include <algorithm>
#include <limits>

namespace spider {

Network::Network(const Graph& graph, double split_a) : graph_(graph) {
  const auto edges = static_cast<std::size_t>(graph_.num_edges());
  channels_.reserve(edges);
  hot_balance_.reserve(edges * 2);
  hot_end_a_.reserve(edges);
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const Graph::Edge& ed = graph_.edge(e);
    channels_.emplace_back(e, ed.a, ed.b, ed.capacity, split_a);
    // A pre-closed edge in the source graph arrives as a closed (all-zero)
    // channel, so networks rebuilt from a churned topology stay consistent.
    if (ed.closed) (void)channels_.back().close();
    const Channel& c = channels_.back();
    hot_balance_.push_back(c.balance(0));
    hot_balance_.push_back(c.balance(1));
    hot_end_a_.push_back(ed.a);
  }
}

void Network::refresh_hot() const {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    hot_balance_[i * 2] = channels_[i].balance(0);
    hot_balance_[i * 2 + 1] = channels_[i].balance(1);
  }
  hot_stale_ = false;
}

EdgeId Network::open_channel(NodeId a, NodeId b, Amount capacity,
                             double split_a) {
  SPIDER_ASSERT_MSG(capacity > 0,
                    "open_channel: a zero-capacity channel between "
                        << a << " and " << b
                        << " would be an unroutable edge");
  const EdgeId e = graph_.add_edge(a, b, capacity);
  channels_.emplace_back(e, a, b, capacity, split_a);
  const Channel& c = channels_.back();
  hot_balance_.push_back(c.balance(0));
  hot_balance_.push_back(c.balance(1));
  hot_end_a_.push_back(a);
  onchain_inflow_ += capacity;
  ++generation_;
  return e;
}

Amount Network::close_channel(EdgeId e) {
  const Amount swept = ch(e).close();  // asserts open and no inflight
  hot_sync(e);
  graph_.close_edge(e);
  escrow_returned_ += swept;
  ++generation_;
  return swept;
}

void Network::deposit_channel(EdgeId e, int side, Amount amount) {
  ch(e).deposit(side, amount);
  hot_sync(e);
  onchain_inflow_ += amount;
  ++generation_;
}

EdgeId Network::apply(const TopologyChange& change) {
  switch (change.kind) {
    case TopologyChange::Kind::kOpen:
      return open_channel(change.a, change.b, change.amount);
    case TopologyChange::Kind::kClose:
      (void)close_channel(change.edge);
      return change.edge;
    case TopologyChange::Kind::kDeposit:
      deposit_channel(change.edge, change.side, change.amount);
      return change.edge;
  }
  SPIDER_ASSERT_MSG(false, "unknown topology change kind");
  return kInvalidEdge;
}

Channel& Network::channel(EdgeId e) {
  SPIDER_ASSERT(e >= 0 && static_cast<std::size_t>(e) < channels_.size());
  return channels_[static_cast<std::size_t>(e)];
}

const Channel& Network::channel(EdgeId e) const {
  SPIDER_ASSERT(e >= 0 && static_cast<std::size_t>(e) < channels_.size());
  return channels_[static_cast<std::size_t>(e)];
}

Amount Network::available(NodeId from, EdgeId e) const {
  return hot_balance(e, hot_side(e, from));
}

Amount Network::path_bottleneck(const Path& path) const {
  SPIDER_ASSERT(!path.empty());
  if (path.edges.empty()) return 0;
  if (hot_stale_) refresh_hot();
  Amount bottleneck = std::numeric_limits<Amount>::max();
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const EdgeId e = path.edges[h];
    const auto idx = static_cast<std::size_t>(e) * 2 +
                     static_cast<std::size_t>(hot_side(e, path.nodes[h]));
    bottleneck = std::min(bottleneck, hot_balance_[idx]);
  }
  return bottleneck;
}

bool Network::can_send(const Path& path, Amount amount) const {
  SPIDER_ASSERT(amount >= 0);
  if (path.edges.empty()) return false;
  if (hot_stale_) refresh_hot();
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    const EdgeId e = path.edges[h];
    const auto idx = static_cast<std::size_t>(e) * 2 +
                     static_cast<std::size_t>(hot_side(e, path.nodes[h]));
    if (hot_balance_[idx] < amount) return false;
  }
  return true;
}

void Network::lock_path(const Path& path, Amount amount) {
  // Pass 1: resolve each hop's side once into the scratch buffer while
  // checking feasibility; pass 2 mutates. Mutation only starts after every
  // hop is validated, so a failed assert cannot leave a partial lock.
  // Edgeless paths were rejected by the old can_send precondition; keep
  // rejecting them so a degenerate plan cannot silently "lock" nothing.
  SPIDER_ASSERT(!path.edges.empty());
  const std::size_t hops = path.edges.size();
  if (side_scratch_.size() < hops) side_scratch_.resize(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    const Channel& c = ch(path.edges[h]);
    const int side = c.side_of(path.nodes[h]);
    SPIDER_ASSERT_MSG(c.balance(side) >= amount,
                      "lock_path: insufficient funds for " << amount);
    side_scratch_[h] = side;
  }
  for (std::size_t h = 0; h < hops; ++h) {
    ch(path.edges[h]).lock(side_scratch_[h], amount);
    hot_sync(path.edges[h]);
  }
}

void Network::settle_path(const Path& path, Amount amount) {
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    Channel& c = ch(path.edges[h]);
    const int side = c.side_of(path.nodes[h]);
    c.settle(side, amount);
    hot_sync(path.edges[h]);
  }
}

void Network::refund_path(const Path& path, Amount amount) {
  for (std::size_t h = 0; h < path.edges.size(); ++h) {
    Channel& c = ch(path.edges[h]);
    const int side = c.side_of(path.nodes[h]);
    c.refund(side, amount);
    hot_sync(path.edges[h]);
  }
}

Amount Network::total_funds() const {
  Amount total = 0;
  for (const Channel& ch : channels_) total += ch.capacity();
  return total;
}

double Network::mean_imbalance_xrp() const {
  // Closed channels are all-zero; including them would dilute the mean the
  // moment a channel closes even though no live channel moved. Count only
  // the open population (identical to the historical behaviour when no
  // channel has ever closed).
  double total = 0;
  std::size_t open = 0;
  for (const Channel& ch : channels_) {
    if (ch.closed()) continue;
    total += to_xrp(ch.imbalance());
    ++open;
  }
  return open == 0 ? 0.0 : total / static_cast<double>(open);
}

void Network::check_invariants() const {
  for (const Channel& ch : channels_) ch.check_invariant();
  // The hot mirror must agree with the authoritative records whenever it
  // is not pending a lazy rebuild.
  if (!hot_stale_) {
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      SPIDER_ASSERT_MSG(hot_balance_[i * 2] == channels_[i].balance(0) &&
                            hot_balance_[i * 2 + 1] == channels_[i].balance(1),
                        "hot balance mirror diverged on edge " << i);
    }
  }
}

}  // namespace spider
