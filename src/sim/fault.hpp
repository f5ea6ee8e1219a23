// Deterministic fault injection.
//
// A fault schedule is a time-ordered stream of FaultEvents — node crashes,
// timed stalls, per-channel message loss, HTLC settle delays, griefing
// receivers — that the Simulator reads as one of its input chains
// (DESIGN.md "Input chains"): one kFault event is queued at a time, and
// applying event i queues event i+1 on the shared EventQueue. Zero-fault
// runs never seed or draw anything here, so they stay byte-identical to
// the pre-fault engine; faulted runs are reproducible because every
// Bernoulli draw happens in event order, from per-channel streams seeded
// by (fault seed, edge id) alone.
//
// FaultState is the runtime side: which nodes are down (with an epoch
// counter so a stall's auto-recovery can be invalidated by a later crash),
// which receivers are griefing, and the per-channel drop probability /
// extra settle delay tables. It deliberately knows nothing about chunks or
// payments — the Simulator owns failure semantics (refunds, retries); this
// class only answers "is this path routable" and "does this message drop".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace spider {

/// One scheduled fault. Node-targeted kinds use `node`; channel-targeted
/// kinds use `edge`. Like TopologyChange, streams must be sorted by `at`
/// (nondecreasing) before submission.
struct FaultEvent {
  enum class Kind {
    kNodeCrash,    ///< node fails; every in-flight chunk through it refunds
    kNodeRecover,  ///< clears a crash (or an outstanding stall) explicitly
    kNodeStall,    ///< crash that auto-recovers after `duration`
    kChannelLoss,  ///< per-channel Bernoulli drop with `probability`; 0 heals
    kSettleDelay,  ///< extra per-channel settle latency `duration`; 0 heals
    kGrief,        ///< node black-holes chunks it receives, holding their
                   ///< locks for `duration` before the refund; 0 heals
  };

  TimePoint at = 0;
  Kind kind = Kind::kNodeCrash;
  NodeId node = kInvalidNode;  ///< crash/recover/stall/grief target
  EdgeId edge = kInvalidEdge;  ///< loss/settle-delay target
  Duration duration = 0;       ///< stall length / settle delay / grief hold
  double probability = 0.0;    ///< kChannelLoss drop probability in [0, 1]

  [[nodiscard]] static FaultEvent crash(TimePoint at, NodeId node);
  [[nodiscard]] static FaultEvent recover(TimePoint at, NodeId node);
  [[nodiscard]] static FaultEvent stall(TimePoint at, NodeId node,
                                        Duration duration);
  [[nodiscard]] static FaultEvent loss(TimePoint at, EdgeId edge,
                                       double probability);
  [[nodiscard]] static FaultEvent settle_delay(TimePoint at, EdgeId edge,
                                               Duration extra);
  [[nodiscard]] static FaultEvent grief(TimePoint at, NodeId node,
                                        Duration hold);

  bool operator==(const FaultEvent&) const = default;
};

/// Human-readable kind name ("crash", "loss", ...) — the on-disk CSV token.
[[nodiscard]] const char* fault_kind_name(FaultEvent::Kind kind);

/// Runtime fault tables, owned by the Simulator and reset by begin().
/// All mutation happens while applying events. Routers are deliberately
/// fault-oblivious; the Simulator filters their plans at commit time.
class FaultState {
 public:
  /// Resets every table for a run over `num_nodes` nodes and `num_edges`
  /// channels, with `seed` as the base for per-channel loss streams.
  void begin(NodeId num_nodes, EdgeId num_edges, std::uint64_t seed);

  /// Channel churn may open edges mid-run; per-edge tables grow to match.
  void grow_edges(EdgeId num_edges);

  /// Marks `node` down and returns its new epoch (the stamp a stall's
  /// auto-recovery event carries; a later crash/recover bumps the epoch and
  /// invalidates it).
  std::uint32_t set_node_down(NodeId node);
  /// Marks `node` up again; also bumps the epoch.
  void set_node_up(NodeId node);
  [[nodiscard]] bool node_down(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].down;
  }
  [[nodiscard]] std::uint32_t node_epoch(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].epoch;
  }

  void set_grief(NodeId node, Duration hold);
  [[nodiscard]] Duration grief_hold(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].grief_hold;
  }

  /// Sets the drop probability for messages crossing `edge` (0 heals). The
  /// first nonzero setting creates the edge's Bernoulli stream, seeded from
  /// (base seed, edge id) only — schedule order does not perturb draws.
  void set_loss(EdgeId edge, double probability);
  void set_settle_delay(EdgeId edge, Duration extra);

  [[nodiscard]] double drop_prob(EdgeId edge) const {
    return drop_prob_[static_cast<std::size_t>(edge)];
  }
  [[nodiscard]] Duration extra_delay(EdgeId edge) const {
    return extra_delay_[static_cast<std::size_t>(edge)];
  }

  // O(1) gates so the zero-fault hot path pays one branch, not table scans.
  [[nodiscard]] bool any_node_down() const { return down_count_ > 0; }
  [[nodiscard]] bool any_grief() const { return grief_count_ > 0; }
  [[nodiscard]] bool any_loss() const { return lossy_count_ > 0; }
  [[nodiscard]] bool any_delay() const { return delay_count_ > 0; }

  /// Draws the Bernoulli drop for ONE message crossing `edge`. Requires
  /// drop_prob(edge) > 0. Each lossy channel's stream advances once per
  /// message that crosses it, in commit order — the determinism contract.
  [[nodiscard]] bool draw_drop(EdgeId edge);

  /// True if any node on `path` is currently down.
  [[nodiscard]] bool path_blocked(const Path& path) const;

  /// Max extra settle delay over the path's channels (0 when none set).
  [[nodiscard]] Duration max_extra_delay(const Path& path) const;

 private:
  struct NodeFault {
    bool down = false;
    std::uint32_t epoch = 0;
    Duration grief_hold = 0;
  };

  std::vector<NodeFault> nodes_;
  std::vector<double> drop_prob_;
  std::vector<Duration> extra_delay_;
  // Per-edge Bernoulli stream, seeded when the edge first turns lossy and
  // kept across heals.
  std::vector<std::optional<Rng>> loss_streams_;
  std::uint64_t seed_ = 0;
  int down_count_ = 0;
  int grief_count_ = 0;
  int lossy_count_ = 0;
  int delay_count_ = 0;
};

}  // namespace spider
