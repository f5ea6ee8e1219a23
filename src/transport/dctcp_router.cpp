#include "transport/dctcp_router.hpp"

namespace spider {

SpiderDctcpRouter::SpiderDctcpRouter(int num_paths, PathSelection selection,
                                     const TransportConfig& transport)
    : num_paths_(num_paths), selection_(selection), controller_(transport) {
  SPIDER_ASSERT(num_paths >= 1);
}

void SpiderDctcpRouter::init(const Network& network,
                             const RouterInitContext& context) {
  paths_.init(network.graph(), num_paths_, selection_, context.shared_paths);
  // Every path a plan can visit is a stored one, so the shared store's
  // size bounds the distinct paths the controller sees (without churn).
  if (context.shared_paths != nullptr)
    controller_.reserve(context.shared_paths->path_count());
}

std::vector<ChunkPlan> SpiderDctcpRouter::plan(const Payment& payment,
                                               Amount amount,
                                               const Network& network, Rng&) {
  paths_.sync(network.topology_generation());
  const std::span<const Path> paths = paths_.paths(payment.src, payment.dst);
  if (paths.empty()) return {};

  // Greedy over the candidate order (shortest first); each path is capped
  // by its own window and pacing credit, so the AIMD loop — not this loop's
  // order — decides the steady-state split across paths. In router-queue
  // mode the first-hop clamp lets downstream shortfalls queue, outwait the
  // marking threshold, and come back as marks that shrink the window — the
  // paper's control loop, which whole-path clamping would short-circuit (a
  // perfectly clamped sender never queues, so nothing is ever marked).
  return plan_greedy(paths, {}, amount, network, queues_ != nullptr,
                     scratch_, [&](const Path& p) {
                       return controller_.admissible(p, now_);
                     });
}

void SpiderDctcpRouter::on_transport_send(const Path& path, Amount amount,
                                          TimePoint now) {
  controller_.on_send(path, amount, now);
}

void SpiderDctcpRouter::on_transport_ack(const Path& path, Amount amount,
                                         bool marked, Duration rtt,
                                         TimePoint now) {
  controller_.on_ack(path, amount, marked, rtt, now);
}

void SpiderDctcpRouter::on_transport_loss(const Path& path, Amount amount,
                                          TimePoint now) {
  controller_.on_loss(path, amount, now);
}

}  // namespace spider
