#include "sim/fault.hpp"

#include "util/assert.hpp"

namespace spider {

FaultEvent FaultEvent::crash(TimePoint at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kNodeCrash;
  e.node = node;
  return e;
}

FaultEvent FaultEvent::recover(TimePoint at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kNodeRecover;
  e.node = node;
  return e;
}

FaultEvent FaultEvent::stall(TimePoint at, NodeId node, Duration duration) {
  SPIDER_ASSERT(duration > 0);
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kNodeStall;
  e.node = node;
  e.duration = duration;
  return e;
}

FaultEvent FaultEvent::loss(TimePoint at, EdgeId edge, double probability) {
  SPIDER_ASSERT(probability >= 0.0 && probability <= 1.0);
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kChannelLoss;
  e.edge = edge;
  e.probability = probability;
  return e;
}

FaultEvent FaultEvent::settle_delay(TimePoint at, EdgeId edge,
                                    Duration extra) {
  SPIDER_ASSERT(extra >= 0);
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kSettleDelay;
  e.edge = edge;
  e.duration = extra;
  return e;
}

FaultEvent FaultEvent::grief(TimePoint at, NodeId node, Duration hold) {
  SPIDER_ASSERT(hold >= 0);
  FaultEvent e;
  e.at = at;
  e.kind = Kind::kGrief;
  e.node = node;
  e.duration = hold;
  return e;
}

const char* fault_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kNodeCrash:
      return "crash";
    case FaultEvent::Kind::kNodeRecover:
      return "recover";
    case FaultEvent::Kind::kNodeStall:
      return "stall";
    case FaultEvent::Kind::kChannelLoss:
      return "loss";
    case FaultEvent::Kind::kSettleDelay:
      return "settle-delay";
    case FaultEvent::Kind::kGrief:
      return "grief";
  }
  SPIDER_ASSERT(false);
  return "?";
}

void FaultState::begin(NodeId num_nodes, EdgeId num_edges,
                       std::uint64_t seed) {
  nodes_.assign(static_cast<std::size_t>(num_nodes), NodeFault{});
  drop_prob_.assign(static_cast<std::size_t>(num_edges), 0.0);
  extra_delay_.assign(static_cast<std::size_t>(num_edges), Duration{0});
  loss_streams_.assign(static_cast<std::size_t>(num_edges), std::nullopt);
  seed_ = seed;
  down_count_ = 0;
  grief_count_ = 0;
  lossy_count_ = 0;
  delay_count_ = 0;
}

void FaultState::grow_edges(EdgeId num_edges) {
  if (static_cast<std::size_t>(num_edges) > drop_prob_.size()) {
    drop_prob_.resize(static_cast<std::size_t>(num_edges), 0.0);
    extra_delay_.resize(static_cast<std::size_t>(num_edges), Duration{0});
    loss_streams_.resize(static_cast<std::size_t>(num_edges));
  }
}

std::uint32_t FaultState::set_node_down(NodeId node) {
  NodeFault& f = nodes_[static_cast<std::size_t>(node)];
  if (!f.down) ++down_count_;
  f.down = true;
  return ++f.epoch;
}

void FaultState::set_node_up(NodeId node) {
  NodeFault& f = nodes_[static_cast<std::size_t>(node)];
  if (f.down) --down_count_;
  f.down = false;
  ++f.epoch;
}

void FaultState::set_grief(NodeId node, Duration hold) {
  NodeFault& f = nodes_[static_cast<std::size_t>(node)];
  if (f.grief_hold == 0 && hold > 0) ++grief_count_;
  if (f.grief_hold > 0 && hold == 0) --grief_count_;
  f.grief_hold = hold;
}

void FaultState::set_loss(EdgeId edge, double probability) {
  double& slot = drop_prob_[static_cast<std::size_t>(edge)];
  if (slot == 0.0 && probability > 0.0) ++lossy_count_;
  if (slot > 0.0 && probability == 0.0) --lossy_count_;
  slot = probability;
  std::optional<Rng>& stream = loss_streams_[static_cast<std::size_t>(edge)];
  if (probability > 0.0 && !stream) {
    // Seed depends on (base seed, edge id) only, never on when or in what
    // order channels became lossy — draws stay reproducible per channel.
    std::uint64_t state =
        seed_ ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(edge) + 1));
    stream.emplace(splitmix64(state));
  }
}

void FaultState::set_settle_delay(EdgeId edge, Duration extra) {
  Duration& slot = extra_delay_[static_cast<std::size_t>(edge)];
  if (slot == 0 && extra > 0) ++delay_count_;
  if (slot > 0 && extra == 0) --delay_count_;
  slot = extra;
}

bool FaultState::draw_drop(EdgeId edge) {
  const double p = drop_prob_[static_cast<std::size_t>(edge)];
  SPIDER_ASSERT(p > 0.0);
  std::optional<Rng>& stream = loss_streams_[static_cast<std::size_t>(edge)];
  SPIDER_ASSERT(stream.has_value());
  return stream->chance(p);
}

bool FaultState::path_blocked(const Path& path) const {
  for (const NodeId n : path.nodes)
    if (nodes_[static_cast<std::size_t>(n)].down) return true;
  return false;
}

Duration FaultState::max_extra_delay(const Path& path) const {
  Duration extra = 0;
  for (const EdgeId e : path.edges) {
    const Duration d = extra_delay_[static_cast<std::size_t>(e)];
    if (d > extra) extra = d;
  }
  return extra;
}

}  // namespace spider
