// spider-dctcp: the paper's actual protocol (§5.2) as a registry scheme.
//
// Where Spider (Waterfilling) jumps straight to a balance-probing fluid
// allocation, this scheme runs the real control loop: each (src, dst) holds
// K candidate paths, and every path carries a DCTCP-style AIMD window
// (transport/rate_controller.hpp) driven by the router queues' one-bit
// delay marks. plan() releases value onto a path only up to
// min(window − inflight, pacing credit) and, in router-queue mode, clamps
// at the FIRST hop only — the sender knows its own channel balance, but
// downstream shortfalls queue at routers, cross the marking threshold, and
// shrink the window; that feedback loop IS the protocol, and exactly the
// transient behavior the fluid schemes cannot exhibit. In source-queue
// mode (no router queues to absorb shortfalls) plans clamp at the
// whole-path bottleneck and the controller degrades to window-paced
// bottleneck routing.
//
// Non-atomic: plans depend on mutable window/pacer state that moves with
// every ack between polls.
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"
#include "transport/greedy_plan.hpp"
#include "transport/rate_controller.hpp"

namespace spider {

class SpiderDctcpRouter final : public Router {
 public:
  explicit SpiderDctcpRouter(int num_paths = 4,
                             PathSelection selection =
                                 PathSelection::kEdgeDisjoint,
                             const TransportConfig& transport = {});

  [[nodiscard]] std::string name() const override { return "spider-dctcp"; }
  [[nodiscard]] bool is_atomic() const override { return false; }

  void init(const Network& network, const RouterInitContext& context) override;

  [[nodiscard]] std::vector<ChunkPlan> plan(const Payment& payment,
                                            Amount amount,
                                            const Network& network,
                                            Rng& rng) override;

  void bind_transport(const RouterQueueBank* queues) override {
    queues_ = queues;
  }
  void on_transport_clock(TimePoint now) override { now_ = now; }
  void on_transport_send(const Path& path, Amount amount,
                         TimePoint now) override;
  void on_transport_ack(const Path& path, Amount amount, bool marked,
                        Duration rtt, TimePoint now) override;
  void on_transport_loss(const Path& path, Amount amount,
                         TimePoint now) override;

  /// Window/pacer state, for tests and the live dashboard's transport panel.
  [[nodiscard]] const PathRateController& controller() const {
    return controller_;
  }

 private:
  int num_paths_;
  PathSelection selection_;
  CandidatePaths paths_;  // shared warmed store when available, else lazy
  PathRateController controller_;
  GreedyPlanScratch scratch_;  // reused by every plan(); O(1) reset
  const RouterQueueBank* queues_ = nullptr;  // non-null in router-queue mode
  TimePoint now_ = 0;  // last on_transport_clock observation
};

}  // namespace spider
