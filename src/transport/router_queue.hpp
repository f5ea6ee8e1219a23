// Transport layer, part 1 of 2: per-channel router queues with one-bit
// delay marking (§4.2, §5.2).
//
// The paper's protocol is a packetized transport: transaction-units queue at
// routers per (channel, direction), are serviced in FIFO order as channel
// funds free up, and any unit whose queueing delay exceeds a threshold gets
// a one-bit ECN-style mark that rides the acknowledgement back to the
// sender, where the per-path AIMD controller
// (transport/rate_controller.hpp) reacts.
//
// The engine's router-queue mode already owns the queues themselves — the
// intrusive per-(edge, side) FIFOs linked through the chunk table
// (sim/simulator.hpp) — so this bank is the transport-layer state OVER
// them: per-(edge, side) depth in value and in units, per-channel
// high-water marks, cumulative mark counts, and the marking rule itself.
// The simulator reports every enqueue/dequeue; the bank answers "should
// this unit carry a mark" from the wait it observed.
//
// Determinism contract: the bank never schedules events and draws no
// randomness, so keeping its accounting hot in plain router-queue runs
// (where QueueDepthProbe reads it) cannot perturb event order — transport-
// off runs stay byte-identical to the pre-transport engine by construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/amount.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace spider {

/// Transport-layer knobs (SimConfig::transport). Off by default: a disabled
/// transport schedules no pace events, marks nothing, and invokes no router
/// feedback hooks, so the engine's event sequence is byte-identical to a
/// build without the transport layer.
struct TransportConfig {
  bool enabled = false;

  /// One-bit marking rule: a unit dequeued after waiting longer than this
  /// inside one channel queue carries the mark to its ack (§5.2's delay
  /// threshold; DCTCP's K translated to queueing delay).
  Duration mark_threshold = milliseconds(40);

  /// Sender pacing tick: with the transport on, pending payments are
  /// re-offered to the (window- and rate-limited) planner every
  /// pace_interval, so releases spread smoothly across the poll interval
  /// instead of bursting once per poll round. 0 disables the tick (windows
  /// still cap in-flight value; releases then happen only at polls).
  Duration pace_interval = milliseconds(100);

  /// AIMD window controller (transport/rate_controller.hpp): initial
  /// per-path window, its floor, additive-increase gain per unmarked
  /// acknowledged unit of value (w += additive_step * acked / w), and the
  /// multiplicative-decrease factor per marked/lost unit of value
  /// (w -= beta_ppm·acked / 10^6 — a fully marked window's worth of acks
  /// scales w by (1 - beta)). The factor travels as integer parts-per-
  /// million so the whole window update stays in exact integer arithmetic
  /// (the transport layer is integer-only; see DESIGN.md "Static analysis
  /// & determinism contracts").
  Amount initial_window = xrp(200);
  Amount min_window = xrp(5);
  Amount additive_step = xrp(10);
  std::int64_t beta_ppm = 500'000;  // multiplicative decrease = 0.5

  /// Pacer fallback RTT until a path has delivered its first ack.
  Duration initial_rtt = seconds(1.0);
};

/// Per-(edge, direction-side) queue accounting + the marking rule.
class RouterQueueBank {
 public:
  /// One nonzero high-water entry from high_water().
  struct ChannelHighWater {
    std::size_t edge = 0;
    int side = 0;
    Amount value = 0;
    std::uint32_t chunks = 0;
  };

  /// Live depth of one (edge, side) queue. Split from the lifetime
  /// high-water marks so the records the hot paths walk — every
  /// enqueue/dequeue, plus the backpressure router's per-hop backlog scan —
  /// pack two sides per 32 bytes instead of dragging the cold maxima
  /// through the cache with them. High-water marks live in a parallel
  /// cold array only enqueues touch (and then only on a new maximum).
  struct SideDepth {
    Amount value = 0;          // value waiting now
    std::uint32_t chunks = 0;  // units waiting now
  };

  /// Lifetime maxima of one (edge, side) queue's depth (cold; reporting
  /// only — see high_water()).
  struct SideHighWater {
    Amount value = 0;
    std::uint32_t chunks = 0;
  };

  /// Re-arms the bank for a run over `num_edges` channels.
  void begin(std::size_t num_edges, Duration mark_threshold) {
    SPIDER_ASSERT(mark_threshold > 0);
    mark_threshold_ = mark_threshold;
    depth_.assign(num_edges, {SideDepth{}, SideDepth{}});
    high_water_.assign(num_edges, {SideHighWater{}, SideHighWater{}});
    total_value_ = 0;
    total_chunks_ = 0;
  }

  /// A channel opened mid-run: grow the flat tables (mirrors the engine's
  /// channel_queues_ growth).
  void grow(std::size_t num_edges) {
    if (depth_.size() < num_edges) {
      depth_.resize(num_edges, {SideDepth{}, SideDepth{}});
      high_water_.resize(num_edges, {SideHighWater{}, SideHighWater{}});
    }
  }

  /// A unit of `amount` entered the (edge, side) queue.
  void on_enqueue(std::size_t edge, int side, Amount amount) {
    SideDepth& s = at(edge, side);
    s.value += amount;
    s.chunks += 1;
    SideHighWater& hw =
        high_water_[edge][static_cast<std::size_t>(side)];
    if (s.value > hw.value) hw.value = s.value;
    if (s.chunks > hw.chunks) hw.chunks = s.chunks;
    total_value_ += amount;
    total_chunks_ += 1;
  }

  /// A unit left the (edge, side) queue after `wait` (served, timed out, or
  /// failed by churn/fault); returns whether the one-bit mark is due.
  /// Callers count the mark only when the transport is enabled — the
  /// accounting itself stays hot in plain router-queue runs.
  bool on_dequeue(std::size_t edge, int side, Amount amount, Duration wait) {
    SideDepth& s = at(edge, side);
    SPIDER_ASSERT(s.value >= amount && s.chunks > 0);
    s.value -= amount;
    s.chunks -= 1;
    total_value_ -= amount;
    total_chunks_ -= 1;
    return wait > mark_threshold_;
  }

  [[nodiscard]] Duration mark_threshold() const { return mark_threshold_; }
  [[nodiscard]] std::size_t num_edges() const { return depth_.size(); }
  /// Live depth of one (edge, side) queue (hot array).
  [[nodiscard]] const SideDepth& side(std::size_t edge, int side) const {
    return depth_[edge][static_cast<std::size_t>(side)];
  }
  /// Aggregate live depth across every channel queue.
  [[nodiscard]] Amount total_value() const { return total_value_; }
  [[nodiscard]] std::size_t total_chunks() const { return total_chunks_; }
  /// Nonzero per-channel high-water marks, sorted by (edge, side).
  [[nodiscard]] std::vector<ChannelHighWater> high_water() const;

 private:
  [[nodiscard]] SideDepth& at(std::size_t edge, int side) {
    return depth_[edge][static_cast<std::size_t>(side)];
  }

  Duration mark_threshold_ = milliseconds(40);
  // Hot/cold split (see SideDepth): depth_ is the per-event working set,
  // high_water_ the reporting-only maxima. Always sized identically.
  std::vector<std::array<SideDepth, 2>> depth_;
  std::vector<std::array<SideHighWater, 2>> high_water_;
  Amount total_value_ = 0;
  std::size_t total_chunks_ = 0;
};

}  // namespace spider
