// The live payment-channel network: topology plus per-channel runtime state,
// with path-level operations (probe / lock / settle / refund) used by the
// simulator and by routing schemes. Path direction is implied by node order.
//
// Dynamic topology: the network owns a private copy of the graph it was
// built from, so channels may open, close, or be re-funded mid-run without
// touching the (shared, immutable) experiment topology. Every mutation that
// goes through the topology surface — open_channel / close_channel /
// deposit_channel / apply(TopologyChange) / note_external_mutation — bumps
// topology_generation(), the monotonically increasing counter routing
// schemes key their cache invalidation on (see routing/path_cache.hpp).
// Closing a channel sweeps its spendable balances back on-chain into
// escrow_returned(): total_funds() + escrow_returned() is conserved across
// closes (deposits are the only operation that grows the sum), which
// tests/test_dynamic_topology.cpp asserts with chunks in flight.
//
// Hot-state layout: the planner inner loops (waterfilling's per-hop
// bottleneck probe, can_send feasibility scans, VirtualBalances overlays)
// read only two Channel fields — balance(side) and which endpoint is side
// 0 — yet an AoS walk drags the whole 64-byte Channel record through the
// cache per hop. Those two fields are therefore mirrored into flat arrays
// indexed by edge id (hot_balance(e, side), hot_side(e, from)); Channel
// stays the cold, authoritative record. Every Network-mediated mutation
// resyncs the touched edge in O(1). The one escape hatch — callers
// mutating a Channel& directly — is the SimSession::network() injection
// point, which already must call note_external_mutation(); that marks the
// mirror stale and the next hot read refreshes it in one O(E) pass.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "sim/topology_event.hpp"

namespace spider {

class Network {
 public:
  /// Builds channels from a private copy of the graph's edges, splitting
  /// each capacity `split_a` : 1−split_a between the endpoints (paper:
  /// equal split).
  explicit Network(const Graph& graph, double split_a = 0.5);

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] Channel& channel(EdgeId e);
  [[nodiscard]] const Channel& channel(EdgeId e) const;
  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }

  // --- Mutable-topology surface ---------------------------------------

  /// How many times the topology has changed since construction. Routers
  /// compare this against the generation they last planned under and
  /// refresh (path deltas, tree re-embeddings, landmark routes) lazily.
  [[nodiscard]] std::uint64_t topology_generation() const {
    return generation_;
  }

  /// Opens a new channel; returns its (append-only) edge id. Rejects
  /// zero-capacity channels with a financial assert — a channel that can
  /// never carry funds is an unroutable edge, not a degenerate success.
  EdgeId open_channel(NodeId a, NodeId b, Amount capacity,
                      double split_a = 0.5);

  /// Closes `e`: sweeps both spendable balances on-chain (accumulated in
  /// escrow_returned()) and retires the edge from the adjacency lists.
  /// Requires no in-flight funds on the channel — the simulator fails the
  /// affected chunks first (Simulator::handle_topology). Returns the swept
  /// amount.
  Amount close_channel(EdgeId e);

  /// On-chain deposit through the topology surface: same mechanics as
  /// channel(e).deposit, plus the generation bump that tells routers the
  /// capacity landscape moved.
  void deposit_channel(EdgeId e, int side, Amount amount);

  /// Applies one scheduled change; returns the edge id it touched (the new
  /// id for opens).
  EdgeId apply(const TopologyChange& change);

  /// Σ balances swept on-chain by channel closes so far. The conservation
  /// invariant across any run is: total_funds() + escrow_returned() ==
  /// initial total_funds() + all deposits.
  [[nodiscard]] Amount escrow_returned() const { return escrow_returned_; }

  /// Σ on-chain value injected since construction: open_channel escrows,
  /// deposit_channel / deposit_one amounts. With it the conservation
  /// invariant needs no run-history bookkeeping:
  ///   total_funds() + escrow_returned() - onchain_inflow()
  /// is constant for the network's whole lifetime (ConservationAuditor
  /// asserts exactly this every poll round).
  [[nodiscard]] Amount onchain_inflow() const { return onchain_inflow_; }

  /// Records that the caller mutated channel state directly (the
  /// SimSession::network() injection point) so routers refresh exactly as
  /// they would after a scheduled topology event. Also marks the hot
  /// balance mirror stale: the caller holds a raw Channel&, so the next
  /// hot read rebuilds the mirror from the authoritative records.
  void note_external_mutation() {
    ++generation_;
    hot_stale_ = true;
  }

  /// Single-hop mutations that keep the hot mirror in sync — the
  /// simulator's direct-channel-mutation sites route through these.
  /// Semantics identical to calling the channel method directly
  /// (deposit_one, unlike deposit_channel, does NOT bump the topology
  /// generation: it is the §5.2.3 rebalancing path, which historically
  /// moves funds without a topology event).
  void lock_one(EdgeId e, int side, Amount amount) {
    ch(e).lock(side, amount);
    hot_sync(e);
  }
  void refund_one(EdgeId e, int side, Amount amount) {
    ch(e).refund(side, amount);
    hot_sync(e);
  }
  void deposit_one(EdgeId e, int side, Amount amount) {
    ch(e).deposit(side, amount);
    onchain_inflow_ += amount;
    hot_sync(e);
  }

  // --- Hot-state (SoA) surface -----------------------------------------

  /// Which balance side `from` spends on edge `e`, answered from the flat
  /// endpoint array (endpoints are immutable after a channel is created,
  /// so this never needs a staleness check).
  [[nodiscard]] int hot_side(EdgeId e, NodeId from) const {
    SPIDER_ASSERT(e >= 0 &&
                  static_cast<std::size_t>(e) < hot_end_a_.size());
    return from == hot_end_a_[static_cast<std::size_t>(e)] ? 0 : 1;
  }

  /// channel(e).balance(side), answered from the contiguous hot mirror.
  /// Refreshes the whole mirror first if an external mutation marked it
  /// stale (see note_external_mutation).
  [[nodiscard]] Amount hot_balance(EdgeId e, int side) const {
    if (hot_stale_) refresh_hot();
    const auto idx = static_cast<std::size_t>(e) * 2 +
                     static_cast<std::size_t>(side);
    SPIDER_ASSERT(e >= 0 && idx < hot_balance_.size());
    return hot_balance_[idx];
  }

  // --- Path-level runtime operations ----------------------------------

  /// Spendable balance for `from` on edge `e` (i.e. in the from→peer
  /// direction).
  [[nodiscard]] Amount available(NodeId from, EdgeId e) const;

  /// min over hops of the sender-side spendable balance: the largest amount
  /// currently sendable along the path in one shot (what waterfilling
  /// probes, §5.3.1).
  [[nodiscard]] Amount path_bottleneck(const Path& path) const;

  [[nodiscard]] bool can_send(const Path& path, Amount amount) const;

  /// Locks `amount` at every hop. Requires can_send.
  void lock_path(const Path& path, Amount amount);

  /// End-to-end completion: at every hop, inflight funds move downstream.
  void settle_path(const Path& path, Amount amount);

  /// End-to-end cancellation: at every hop, inflight funds return upstream.
  void refund_path(const Path& path, Amount amount);

  /// Σ capacities — changes only through deposits and closes; the
  /// conservation tests track it together with escrow_returned().
  [[nodiscard]] Amount total_funds() const;

  /// Mean over OPEN channels of |balance(a) − balance(b)| in XRP.
  [[nodiscard]] double mean_imbalance_xrp() const;

  /// Validates every channel's conservation invariant.
  void check_invariants() const;

 private:
  // Hot-path accessor: same always-on bounds check as channel() (the repo
  // keeps financial asserts on in release; they are cheap integer
  // compares), without the extra available()/side_of indirections.
  [[nodiscard]] const Channel& ch(EdgeId e) const {
    SPIDER_ASSERT(e >= 0 && static_cast<std::size_t>(e) < channels_.size());
    return channels_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Channel& ch(EdgeId e) {
    SPIDER_ASSERT(e >= 0 && static_cast<std::size_t>(e) < channels_.size());
    return channels_[static_cast<std::size_t>(e)];
  }

  /// Re-mirrors one edge's balances into the hot arrays after a mediated
  /// mutation. Two loads + two stores; the authoritative record was just
  /// touched so both lines are warm.
  void hot_sync(EdgeId e) {
    const auto i = static_cast<std::size_t>(e);
    const Channel& c = channels_[i];
    hot_balance_[i * 2] = c.balance(0);
    hot_balance_[i * 2 + 1] = c.balance(1);
  }

  /// Rebuilds the whole hot mirror from the authoritative channels (O(E));
  /// runs lazily on the first hot read after note_external_mutation().
  void refresh_hot() const;

  Graph graph_;  // private copy: churn never touches the shared topology
  std::vector<Channel> channels_;
  // Hot SoA mirrors of the planner-read Channel fields: balance[2*e+side]
  // and endpoint a per edge (see header comment). Mutable + stale flag so
  // const hot reads can lazily rebuild after an external mutation.
  mutable std::vector<Amount> hot_balance_;
  std::vector<NodeId> hot_end_a_;
  mutable bool hot_stale_ = false;
  std::uint64_t generation_ = 0;
  Amount escrow_returned_ = 0;
  Amount onchain_inflow_ = 0;
  // Per-hop side indices resolved once per lock_path and reused for the
  // mutation pass, so the hot path performs no allocation (the buffer only
  // ever grows) and no repeated endpoint lookups. A Network is owned by one
  // run/thread, so a mutable scratch is safe.
  mutable std::vector<int> side_scratch_;
};

}  // namespace spider
