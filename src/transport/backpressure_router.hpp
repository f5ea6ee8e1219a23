// Backpressure routing, after Varma & Maguluri, "Throughput Optimal Routing
// in Blockchain Based Payment Systems" (PAPERS.md).
//
// Their scheme routes by queue backlog differentials: a unit moves toward
// the neighbor whose queue for the destination is shortest, which is
// throughput-optimal in the classic Tassiulas–Ephremides sense and is
// defined *in terms of* router queues — inexpressible in the fluid-only
// engine, and the reason this scheme rides on the transport layer's
// RouterQueueBank.
//
// Adaptation to this engine's source-routed transport: instead of hop-level
// forwarding decisions, the sender scores each of its K candidate paths by
// the total live queue backlog along the path's directed hops (the path
// analogue of the backlog differential — the all-queues-empty path wins
// outright) and releases value onto the least-backlogged path first. In
// router-queue mode plans are clamped only at the first hop, exactly like
// the engine's own dispatch rule: downstream shortfalls queue, and the
// resulting backlog steers the next plan elsewhere. That feedback loop IS
// the scheme; with the bank unbound (source-queue mode) it degenerates to
// bottleneck-clamped shortest-first and stays correct.
//
// Plans read live queue depths that change with every served chunk
// between polls.
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"
#include "transport/greedy_plan.hpp"
#include "transport/router_queue.hpp"

namespace spider {

class BackpressureRouter final : public Router {
 public:
  explicit BackpressureRouter(int num_paths = 4,
                              PathSelection selection =
                                  PathSelection::kEdgeDisjoint);

  [[nodiscard]] std::string name() const override { return "backpressure"; }
  [[nodiscard]] bool is_atomic() const override { return false; }

  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

  void bind_transport(const RouterQueueBank* queues) override {
    queues_ = queues;
  }

  /// Directed backlog along `path`: Σ over hops of the live queue value at
  /// (edge, sending side). 0 with no bank bound. Exposed for tests.
  [[nodiscard]] Amount path_backlog(const Path& path,
                                    const Network& network) const;

 private:
  int num_paths_;
  PathSelection selection_;
  CandidatePaths paths_;
  GreedyPlanScratch scratch_;
  const RouterQueueBank* queues_ = nullptr;
};

}  // namespace spider
