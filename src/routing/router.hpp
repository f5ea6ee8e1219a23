// Routing-scheme interface.
//
// A Router turns (payment, amount to send now) into a set of path chunks.
// The simulator validates and locks the chunks, schedules their settlement
// Δ seconds later, and — for non-atomic schemes — parks any unplanned
// remainder in the pending queue for the next poll (§6.1).
//
// Atomic schemes (`is_atomic() == true`: SilentWhispers, SpeedyMurmurs,
// max-flow) must plan the FULL amount with chunks that are *jointly*
// feasible (locking them sequentially must succeed); otherwise they must
// return an empty plan, which the simulator records as a rejected payment.
// VirtualBalances helps planners reason about joint feasibility when their
// candidate paths share channels.
//
// Routers read global network state directly — the same visibility the
// paper's simulator gives every scheme (§6.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fluid/payment_graph.hpp"
#include "routing/path_cache.hpp"
#include "sim/network.hpp"
#include "sim/payment.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace spider {

/// One planned transfer: a borrowed path plus the amount to move on it.
/// `path` is NOT owned — it points into router-owned storage (a path cache,
/// a per-pair plan table, or the router's per-plan scratch) and is only
/// guaranteed valid until the router's next plan() call. The simulator
/// copies the hops it needs into its pooled chunk table immediately, so the
/// plan -> lock -> inflight pipeline allocates nothing per chunk.
struct ChunkPlan {
  const Path* path = nullptr;
  Amount amount = 0;
};

/// Context handed to Router::init. `demand_hint` is the estimated demand
/// matrix (Spider LP and the primal-dual extension need it; others ignore
/// it); `delta_seconds` is the confirmation delay Δ of the run;
/// `shared_paths` is an optional pre-warmed candidate-path store shared
/// across runs (and ExperimentRunner workers) — routers that plan over
/// cached paths read it instead of recomputing Yen / edge-disjoint searches
/// per run.
struct RouterInitContext {
  const PaymentGraph* demand_hint = nullptr;
  double delta_seconds = 0.5;
  const PathCache* shared_paths = nullptr;
};

/// What a router promises about plan()'s inputs.
///   kNone — nothing: plan() may read any state, so every payment is
///     planned at arrival and re-planned at every poll until it resolves.
///   kCandidatePaths — plan() reads only the candidate paths that
///     plan_read_paths(src, dst) returns for the pair (plus live balances).
///     That set changes only at init(). An empty set means plan() returns
///     nothing for the pair, with no side effect, however often it is
///     called; the simulator then never calls it for such a payment and
///     parks the payment until its deadline.
enum class PlanSpeculation { kNone, kCandidatePaths };

class RouterQueueBank;

class Router {
 public:
  virtual ~Router() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual bool is_atomic() const = 0;

  /// Called once before the run, after the network is constructed.
  virtual void init(const Network& network, const RouterInitContext& context);

  /// Plans chunks moving up to `amount` from payment.src to payment.dst.
  /// Must not mutate the network. Total planned must be <= amount.
  [[nodiscard]] virtual std::vector<ChunkPlan> plan(const Payment& payment,
                                                    Amount amount,
                                                    const Network& network,
                                                    Rng& rng) = 0;

  /// Periodic hook, invoked once per pending-queue poll (price updates for
  /// the primal–dual extension; no-op otherwise).
  virtual void on_tick(const Network& network, TimePoint now);

  /// Read once per run, at Simulator::begin (see PlanSpeculation).
  [[nodiscard]] virtual PlanSpeculation plan_speculation() const {
    return PlanSpeculation::kNone;
  }
  /// The pair's read set under kCandidatePaths: the paths plan() may use
  /// for (src, dst), valid until the next plan() or init(). Empty under
  /// kNone (the default), where the simulator never asks.
  [[nodiscard]] virtual std::span<const Path> plan_read_paths(
      NodeId src, NodeId dst, const Network& network);

  // --- Transport-layer feedback (src/transport/) -------------------------
  //
  // The simulator drives these in event order, and only when
  // SimConfig::transport.enabled — fluid schemes inherit the no-op defaults
  // and never see them. A windowed router (spider-dctcp, backpressure)
  // keeps mutable per-path state behind these hooks: its plans depend on
  // feedback that arrives between polls.

  /// Read-only view of the per-channel router queues, bound once per run
  /// before the first event (the backpressure scheme plans from it).
  virtual void bind_transport(const RouterQueueBank* queues);
  /// Simulation clock observed immediately before each plan() with the
  /// transport on, so pacers meter release credit against it.
  virtual void on_transport_clock(TimePoint now);
  /// `amount` was locked on `path` (one future ack or loss will follow).
  virtual void on_transport_send(const Path& path, Amount amount,
                                 TimePoint now);
  /// `amount` settled end-to-end; `marked` carries the routers' one-bit
  /// delay mark, `rtt` is send-to-ack time at the sender.
  virtual void on_transport_ack(const Path& path, Amount amount, bool marked,
                                Duration rtt, TimePoint now);
  /// `amount` failed (timeout, churn, or injected fault) and was refunded.
  virtual void on_transport_loss(const Path& path, Amount amount,
                                 TimePoint now);
};

/// Read-only overlay over current balances that tracks hypothetical locks,
/// so a planner can check that a multi-path plan is jointly feasible before
/// committing to it.
///
/// This sits on every planner's hot path (every plan() probes it per hop),
/// so the overlay is a flat array indexed by (edge, side) — no tree walks,
/// no per-plan allocation. Clearing between plans is O(1): each slot carries
/// the epoch that wrote it, and attach()/reset() just bump the current
/// epoch, which invalidates every stale entry at once. Routers keep one
/// instance alive across calls and re-attach it per plan; storage is only
/// (re)allocated when the network's edge count grows.
class VirtualBalances {
 public:
  VirtualBalances() = default;
  explicit VirtualBalances(const Network& network) { attach(network); }

  /// Rebinds the overlay to `network` and drops all hypothetical locks.
  /// O(1) unless the edge count grew since the last attach.
  void attach(const Network& network);

  /// Drops all hypothetical locks, keeping the bound network. O(1).
  void reset();

  /// Spendable balance for `from` on edge `e`, minus hypothetical locks.
  [[nodiscard]] Amount available(NodeId from, EdgeId e) const;

  /// min over hops of available().
  [[nodiscard]] Amount path_bottleneck(const Path& path) const;

  /// Records a hypothetical lock along the path. Requires amount <=
  /// path_bottleneck(path).
  void use(const Path& path, Amount amount);

 private:
  struct Slot {
    std::uint64_t epoch = 0;  // valid iff == epoch_
    Amount used = 0;
  };

  [[nodiscard]] Amount used(EdgeId e, int side) const {
    const Slot& slot =
        slots_[static_cast<std::size_t>(e) * 2 + static_cast<std::size_t>(side)];
    return slot.epoch == epoch_ ? slot.used : 0;
  }

  const Network* network_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::vector<Slot> slots_;  // 2 * num_edges, index = 2 * edge + side
};

}  // namespace spider
